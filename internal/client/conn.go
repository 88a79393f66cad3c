package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"infinicache/internal/protocol"
)

// connErr classifies a raw transport error from a proxy connection.
// Frame-limit violations (oversized payload/key, too many args) are the
// caller's bug and pass through untouched; everything else — a
// net.OpError from a write against a crashed proxy, an injected hangup,
// an EOF mid-stream — means the connection died, which most likely
// means the proxy left the cluster. Those wrap into errConnClosed so
// the op driver refreshes the ring and re-routes (PR 8 covered the dial
// path; this covers every read/write-side escape).
func connErr(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, protocol.ErrPayloadTooLarge) ||
		errors.Is(err, protocol.ErrKeyTooLong) ||
		errors.Is(err, protocol.ErrTooManyArgs) {
		return err
	}
	if errors.Is(err, errConnClosed) {
		return err
	}
	return fmt.Errorf("%w: %s: %v", errConnClosed, op, err)
}

// proxyConn is one connection to a proxy with a response dispatcher: a
// single reader goroutine routes frames to per-request channels by
// sequence number (a GET receives several TData frames on one seq, and
// a pipelined PUT routes many seqs onto one shared channel).
type proxyConn struct {
	conn *protocol.Conn

	mu      sync.Mutex
	waiters map[uint64]chan *protocol.Message
	closed  bool
}

// conn returns (dialing if needed) the connection to addr. A cached
// connection that died (proxy left the cluster, network blip) is
// evicted and redialed rather than handed back — a retried attempt gets
// a live socket, not a guaranteed errConnClosed.
func (c *Client) conn(addr string) (*proxyConn, error) {
	c.mu.Lock()
	if pc, ok := c.conns[addr]; ok {
		if !pc.isClosed() {
			c.mu.Unlock()
			return pc, nil
		}
		delete(c.conns, addr)
	}
	c.mu.Unlock()

	dial := c.cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	raw, err := dial(addr)
	if err != nil {
		// An unreachable proxy reads the same as a connection that died:
		// most likely it left the cluster, so wrap in errConnClosed and
		// let the op driver refresh the ring and re-route.
		return nil, fmt.Errorf("%w: dial %s: %v", errConnClosed, addr, err)
	}
	pconn := protocol.NewConn(raw)
	if err := pconn.Send(&protocol.Message{Type: protocol.TJoinClient}); err != nil {
		pconn.Close()
		return nil, err
	}
	pc := &proxyConn{
		conn:    pconn,
		waiters: make(map[uint64]chan *protocol.Message),
	}
	go pc.readLoop()

	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.conns[addr]; ok && !existing.isClosed() {
		// Raced with another goroutine; keep theirs.
		go pc.close()
		return existing, nil
	}
	c.conns[addr] = pc
	return pc, nil
}

// readLoop routes inbound frames to their waiters. Delivery happens
// under the mutex so a deregister-then-drain in release observes every
// frame routed to its channel: once deregister returns, no more frames
// can land there. Frames with no waiter (responses to abandoned
// requests) and frames dropped on a full waiter buffer recycle their
// pooled payloads here — this hop consumed them.
func (pc *proxyConn) readLoop() {
	for {
		m, err := pc.conn.Recv()
		if err != nil {
			pc.close()
			return
		}
		pc.mu.Lock()
		ch := pc.waiters[m.Seq]
		if ch != nil {
			select {
			case ch <- m:
				m = nil // delivered; the waiter owns the payload now
			default:
				// Waiter's buffer full (stale frames); drop below.
			}
		}
		pc.mu.Unlock()
		if m != nil {
			m.Free()
		}
	}
}

// register routes the replies to the n consecutive seqs starting at
// base onto ch, letting one awaiter multiplex a whole burst of requests.
// Returns false when the connection is already closed (no frame will
// ever be delivered).
func (pc *proxyConn) register(base uint64, n int, ch chan *protocol.Message) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed {
		return false
	}
	for i := 0; i < n; i++ {
		pc.waiters[base+uint64(i)] = ch
	}
	return true
}

// isClosed reports whether the connection's read loop has died.
func (pc *proxyConn) isClosed() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.closed
}

func (pc *proxyConn) deregister(seq uint64) {
	pc.mu.Lock()
	delete(pc.waiters, seq)
	pc.mu.Unlock()
}

// wait is one attempt's claim on a proxy connection: n consecutive
// request seqs (tag i is seq base+i) whose replies all land on one
// channel, and the single timer bounding the attempt. A GET, ranged GET,
// DEL or RING is one seq; a PUT is d+p; an MGet/MPut burst is one per
// key/chunk. The seqs being consecutive is what makes the tag a
// subtraction instead of a map lookup.
type wait struct {
	pc      *proxyConn
	ch      chan *protocol.Message
	timeout <-chan time.Time
	base    uint64
	n       int
	left    int    // tags still awaiting frames
	fin     []bool // per-tag finished marks; nil for a single-seq claim
}

// claim reserves n seqs on pc and registers them on one channel of
// capacity buf, which must cover every frame the proxy can send on
// those seqs — the dispatcher never blocks, it drops (and recycles) on
// overflow. The attempt's RequestTimeout starts here: the deadline is
// fixed, so one timer covers the whole wait. The caller sends its
// frames, runs collect, and must release the claim on every path.
func (c *Client) claim(pc *proxyConn, n, buf int) (wait, error) {
	w := wait{
		pc:   pc,
		ch:   make(chan *protocol.Message, buf),
		base: c.seq.Add(uint64(n)) - uint64(n) + 1,
		n:    n,
		left: n,
	}
	if n > 1 {
		w.fin = make([]bool, n)
	}
	if !pc.register(w.base, n, w.ch) {
		return w, errConnClosed
	}
	w.timeout = c.cfg.Clock.After(c.cfg.RequestTimeout)
	return w, nil
}

// seq is the request seq of tag.
func (w *wait) seq(tag int) uint64 { return w.base + uint64(tag) }

// pending reports whether tag still awaits frames.
func (w *wait) pending(tag int) bool {
	if w.fin == nil {
		return w.left > 0 // single-seq claim: the hot GET path pays for no per-tag state
	}
	return !w.fin[tag]
}

// finish ends one tag: its seq is deregistered, so the dispatcher
// recycles any later frame for it (stragglers past a GET's first d)
// instead of routing it here.
func (w *wait) finish(tag int) {
	if !w.pending(tag) {
		return
	}
	w.pc.deregister(w.seq(tag))
	if w.fin != nil {
		w.fin[tag] = true
	}
	w.left--
}

// abandon tells the proxy to drop every request still pending (fire and
// forget: no reply comes; errors just mean the connection is dying,
// which abandons the requests anyway). CANCEL only releases the
// proxy-side window slots — release still deregisters and drains here.
func (w *wait) abandon() {
	w.pc.conn.Pin()
	for tag := 0; tag < w.n; tag++ {
		if w.pending(tag) {
			w.pc.conn.Forward(protocol.TCancel, w.seq(tag), "", "", nil, nil)
		}
	}
	w.pc.conn.Flush()
}

// release ends the attempt: whatever is still pending is deregistered,
// then the frames still parked on the channel (straggler DATA chunks,
// stale errors) return their pooled payloads. Delivery happens under
// the dispatcher's mutex, so once deregister returns no more frames can
// land. Safe on a closed channel.
func (w *wait) release() {
	for tag := 0; tag < w.n; tag++ {
		w.finish(tag)
	}
	for {
		select {
		case m, ok := <-w.ch:
			if !ok {
				return
			}
			m.Free()
		default:
			return
		}
	}
}

// collect is the client's one wait loop. It feeds every reply frame of
// a pending tag to onFrame — which reports whether that tag is finished
// — and recycles the frame afterwards (a callback that keeps the
// payload nils msg.Payload). It returns nil once every tag finished; on
// timeout or ctx cancellation whatever is still pending is CANCELled at
// the proxy and ErrTimeout / ctx.Err() returned, a timeout also closing
// the connection; a closed channel
// returns errConnClosed. Afterwards w.pending names exactly the
// unanswered tags.
func (c *Client) collect(ctx context.Context, w *wait, onFrame func(tag int, msg *protocol.Message) bool) error {
	for w.left > 0 {
		select {
		case msg, ok := <-w.ch:
			if !ok {
				return errConnClosed
			}
			// A frame for a tag already finished is stale: recycle only.
			tag := int(msg.Seq - w.base)
			if tag >= 0 && tag < w.n && w.pending(tag) && onFrame(tag, msg) {
				w.finish(tag)
			}
			msg.Free()
		case <-ctx.Done():
			w.abandon()
			return ctx.Err()
		case <-w.timeout:
			// A proxy that stays silent for a whole RequestTimeout may
			// be behind a broken stream — one garbled length field
			// leaves a reader waiting for bytes that never come, with
			// every later frame stuck behind them — so the connection
			// is closed after the CANCELs and the next op redials.
			w.abandon()
			w.pc.close()
			return ErrTimeout
		}
	}
	return nil
}

// ask runs the single-request shape shared by GET, ranged GET, DEL and
// RING: send one frame to addr, then feed the replies on its seq to
// onFrame until it reports the request finished. The error is the
// wait's (timeout, cancellation, dead connection) or else onFrame's.
func (c *Client) ask(ctx context.Context, addr string, typ protocol.Type, key string, args []int64, buf int, onFrame func(msg *protocol.Message) (bool, error)) error {
	pc, err := c.conn(addr)
	if err != nil {
		return err
	}
	w, err := c.claim(pc, 1, buf)
	if err != nil {
		return err
	}
	defer w.release()
	if err := pc.conn.Forward(typ, w.base, key, "", args, nil); err != nil {
		return connErr(typ.String(), err)
	}
	var ferr error
	err = c.collect(ctx, &w, func(_ int, msg *protocol.Message) (done bool) {
		done, ferr = onFrame(msg)
		return done
	})
	if err == nil {
		err = ferr
	}
	return err
}

func (pc *proxyConn) close() {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return
	}
	pc.closed = true
	// Waiter channels may be shared across seqs (pipelined PUT);
	// dedupe before closing.
	seen := make(map[chan *protocol.Message]bool, len(pc.waiters))
	for _, ch := range pc.waiters {
		seen[ch] = true
	}
	pc.waiters = make(map[uint64]chan *protocol.Message)
	pc.mu.Unlock()
	pc.conn.Close()
	for ch := range seen {
		close(ch)
	}
}
