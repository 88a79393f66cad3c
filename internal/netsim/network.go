package netsim

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"infinicache/internal/bufpool"
)

// Network is an in-process transport: named listeners and buffered
// full-duplex connections between goroutines of one process. An
// emulated deployment is one process whose bandwidth and latency are
// already modelled in virtual time by Path, so carrying its bytes
// through the kernel's loopback stack models nothing and only leaks
// real compute into that virtual time; a Network carries them through
// memory instead. FaultConn wraps its connections exactly as it wraps
// TCP ones.
//
// A Network is a value owned by whoever builds the deployment — names
// are scoped to it, so two deployments in one process cannot collide.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{listeners: make(map[string]*listener)}
}

const (
	// connBuffer caps the bytes buffered in one direction of a
	// connection — the socket buffer of this transport. A writer whose
	// peer stopped reading must block, not buffer without bound: the
	// node dispatcher's window, the backup relay and the migration pacer
	// all rely on a full pipe pushing back.
	connBuffer = 1 << 20
	// segSize is the unit buffered bytes are held in: pooled buffers
	// drawn while bytes are in flight and returned as they are read.
	segSize = 64 << 10
)

// addr names one end of an in-process connection.
type addr string

func (addr) Network() string  { return "inproc" }
func (a addr) String() string { return string(a) }

// Listen binds name on the network. The name is the listener's address:
// Addr().String() returns it and Dial reaches it until Close.
func (nw *Network) Listen(name string) (net.Listener, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.listeners[name]; dup {
		return nil, fmt.Errorf("netsim: listen %s: name already in use", name)
	}
	l := &listener{nw: nw, name: name}
	l.cond.L = &l.mu
	nw.listeners[name] = l
	return l, nil
}

// Dial connects to the listener bound to name. Like a TCP connect it
// returns once the connection is queued for Accept, and it is refused
// when nothing listens on name (never bound, or closed).
func (nw *Network) Dial(name string) (net.Conn, error) {
	nw.mu.Lock()
	l := nw.listeners[name]
	nw.mu.Unlock()
	p := new(pipe) // both ends and both directions in one allocation
	p.up.cond.L, p.down.cond.L = &p.up.mu, &p.down.mu
	p.dialed = conn{rd: &p.down, wr: &p.up, local: "dialer", remote: addr(name)}
	p.served = conn{rd: &p.up, wr: &p.down, local: addr(name), remote: "dialer"}
	if l == nil || !l.enqueue(&p.served) {
		return nil, fmt.Errorf("netsim: dial %s: connection refused", name)
	}
	return &p.dialed, nil
}

// listener is one bound name: a queue of dialed connections waiting for
// Accept.
type listener struct {
	nw   *Network
	name string

	mu      sync.Mutex
	cond    sync.Cond
	pending []*conn
	closed  bool
}

func (l *listener) enqueue(c *conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.pending = append(l.pending, c)
	l.cond.Signal()
	return true
}

func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, net.ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

// Close unbinds the name, fails parked and future Accepts, and hangs up
// on connections that were dialed but never accepted.
func (l *listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	orphans := l.pending
	l.pending = nil
	l.cond.Broadcast()
	l.mu.Unlock()

	l.nw.mu.Lock()
	delete(l.nw.listeners, l.name)
	l.nw.mu.Unlock()
	for _, c := range orphans {
		c.Close()
	}
	return nil
}

func (l *listener) Addr() net.Addr { return addr(l.name) }

// pipe is one connection: the dialing end writes up and reads down, the
// accepted end the reverse.
type pipe struct {
	up, down       half
	dialed, served conn
}

// conn is one end of a connection: it reads one half and writes the
// other.
type conn struct {
	rd, wr        *half
	local, remote addr
}

func (c *conn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *conn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close hangs up this end. Its own parked Read or Write fails at once;
// the peer's writes fail, and the peer's reads drain what this end had
// already written before they see io.EOF.
func (c *conn) Close() error {
	c.rd.closeReader()
	c.wr.closeWriter()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// Nothing in the tree sets a deadline on a data connection (every wait
// is bounded on the virtual clock instead), so there are none to model.
func (c *conn) SetDeadline(time.Time) error      { return os.ErrNoDeadline }
func (c *conn) SetReadDeadline(time.Time) error  { return os.ErrNoDeadline }
func (c *conn) SetWriteDeadline(time.Time) error { return os.ErrNoDeadline }

// half is one direction of a connection: a bounded byte queue between
// one end's Write and the other end's Read.
type half struct {
	// rmu and wmu admit one Read and one Write at a time, held across
	// any wait, so the bytes of one Write stay contiguous however many
	// goroutines write (as a TCP conn's write lock does).
	rmu, wmu sync.Mutex

	mu   sync.Mutex
	cond sync.Cond // any change a parked Read or Write waits on

	segs [][]byte // buffered bytes, oldest first, in pooled segments
	off  int      // bytes of segs[0] already read
	n    int      // bytes buffered

	// dst is the buffer of a Read parked on an empty queue. The next
	// Write copies straight into it — one copy instead of one into a
	// segment and one out — and counts the bytes in got.
	dst []byte
	got int

	rclosed bool // the reading end closed: writes fail, nothing is kept
	wclosed bool // the writing end closed: reads drain, then io.EOF
}

func (h *half) read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	h.rmu.Lock()
	defer h.rmu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 && !h.rclosed && !h.wclosed {
		h.dst = p
		for h.got == 0 && !h.rclosed && !h.wclosed {
			h.cond.Wait()
		}
		got := h.got
		h.dst, h.got = nil, 0
		if got > 0 {
			return got, nil
		}
	}
	switch {
	case h.rclosed:
		return 0, io.ErrClosedPipe
	case h.n == 0:
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && h.n > 0 {
		seg := h.segs[0]
		c := copy(p[n:], seg[h.off:])
		n, h.off, h.n = n+c, h.off+c, h.n-c
		if h.off == len(seg) {
			bufpool.Put(seg)
			h.off = 0
			h.segs = h.segs[:copy(h.segs, h.segs[1:])]
		}
	}
	h.cond.Broadcast() // room for a Write parked at the cap
	return n, nil
}

func (h *half) write(p []byte) (int, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for {
		switch {
		case h.rclosed || h.wclosed:
			return n, io.ErrClosedPipe
		case n == len(p):
			return n, nil
		case h.dst != nil && h.n == 0 && h.got < len(h.dst):
			c := copy(h.dst[h.got:], p[n:])
			n, h.got = n+c, h.got+c
			h.cond.Broadcast()
		case h.n == connBuffer:
			h.cond.Wait()
		default:
			// Buffer what fits under the cap, topping up the newest
			// segment before drawing another. No wake-up: a Read only
			// ever waits with dst parked, which the case above serves.
			room := min(len(p)-n, connBuffer-h.n)
			for room > 0 {
				k := len(h.segs) - 1
				if k < 0 || len(h.segs[k]) == segSize {
					h.segs = append(h.segs, bufpool.Get(segSize)[:0])
					k++
				}
				seg := h.segs[k]
				c := copy(seg[len(seg):segSize], p[n:n+room])
				h.segs[k] = seg[:len(seg)+c]
				n, h.n, room = n+c, h.n+c, room-c
			}
		}
	}
}

func (h *half) closeReader() {
	h.mu.Lock()
	h.rclosed = true
	bufpool.PutAll(h.segs)
	h.segs, h.off, h.n = nil, 0, 0
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *half) closeWriter() {
	h.mu.Lock()
	h.wclosed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}
