package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"infinicache/internal/bufpool"
	"infinicache/internal/client"
	"infinicache/internal/lambdanode"
	"infinicache/internal/protocol"
	"infinicache/internal/proxy"
)

const (
	numClients   = 2 // load generator: min(nproc, 2) client goroutines, one proxy connection each
	warmNodes    = 12
	dataShards   = 10
	parityShards = 2
)

// nodePool is the benchmark-owned always-warm node pool handed to
// proxy.New as its Invoker: every function is started once, as a
// goroutine that dials the proxy, joins, and serves GET/SET/DEL/PING
// from a map forever — no cold start, no billing cycle, no BYE. It is
// the node boundary of the stage ledger: with a tracer installed each
// chunk request is stamped on arrival and when its reply is written.
type nodePool struct {
	mu      sync.Mutex
	started map[string]bool
	wg      sync.WaitGroup
	tr      atomic.Pointer[tracer]
}

func (np *nodePool) Invoke(function string, payload []byte) error {
	pl, err := lambdanode.DecodePayload(payload)
	if err != nil {
		return err
	}
	np.mu.Lock()
	if np.started == nil {
		np.started = make(map[string]bool)
	}
	if np.started[function] {
		np.mu.Unlock()
		return nil
	}
	np.started[function] = true
	np.wg.Add(1)
	np.mu.Unlock()
	go func() {
		defer np.wg.Done()
		np.runNode(function, pl.ProxyAddr)
	}()
	return nil
}

// pendingReply is a traced chunk request whose reply is staged but not
// yet on the wire.
type pendingReply struct {
	op   *opTrace
	recv int64
}

func (np *nodePool) runNode(name, proxyAddr string) {
	raw, err := net.Dial("tcp", proxyAddr)
	if err != nil {
		return
	}
	conn := protocol.NewConn(raw)
	defer conn.Close()
	if conn.Send(&protocol.Message{Type: protocol.TJoinLambda, Key: name}) != nil {
		return
	}
	if conn.Send(&protocol.Message{Type: protocol.TPong, Key: name}) != nil {
		return
	}
	store := make(map[string][]byte)
	var pending []pendingReply
	// written stamps every staged reply: called once the connection's
	// write buffer has reached the socket.
	written := func() {
		if len(pending) == 0 {
			return
		}
		now := nanos()
		for _, p := range pending {
			p.op.addNode(p.recv, now)
		}
		pending = pending[:0]
	}
	serve := func(m *protocol.Message) {
		var op *opTrace
		if tr := np.tr.Load(); tr != nil && (m.Type == protocol.TGet || m.Type == protocol.TSet) {
			if op = tr.lookup(m.Key); op != nil {
				pending = append(pending, pendingReply{op, nanos()})
			}
		}
		switch m.Type {
		case protocol.TPing:
			conn.Forward(protocol.TPong, m.Seq, name, "", nil, nil)
		case protocol.TGet:
			if b, ok := store[m.Key]; ok {
				conn.Forward(protocol.TData, m.Seq, m.Key, "", nil, b)
				// A payload of VectoredMin or more is not staged: Forward
				// writes it, with everything staged before it, at once.
				if len(b) >= protocol.VectoredMin {
					written()
				}
			} else {
				conn.Forward(protocol.TMiss, m.Seq, m.Key, "", nil, nil)
			}
		case protocol.TSet:
			// Like the Lambda runtime's store: take ownership of the pooled
			// payload and recycle the buffer it replaces.
			if old, ok := store[m.Key]; ok {
				bufpool.Put(old)
			}
			store[m.Key] = m.Payload
			conn.Forward(protocol.TAck, m.Seq, m.Key, "", nil, nil)
		case protocol.TDel:
			if old, ok := store[m.Key]; ok {
				bufpool.Put(old)
				delete(store, m.Key)
			}
			conn.Forward(protocol.TAck, m.Seq, m.Key, "", nil, nil)
		}
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		// Like the real Lambda runtime: replies for everything already
		// buffered coalesce into one flush.
		conn.Pin()
		serve(m)
		for conn.Buffered() > 0 {
			if m, err = conn.Recv(); err != nil {
				conn.Flush()
				return
			}
			serve(m)
		}
		if conn.Flush() != nil {
			return
		}
		written()
	}
}

// connTap wraps a traced client's proxy connection: it counts writes
// and bytes, and stamps the op in flight with the last request byte
// written and the first and last response bytes read.
type connTap struct {
	cur    *atomic.Pointer[opTrace]
	writes atomic.Int64
	bytes  atomic.Int64
}

type tappedConn struct {
	net.Conn
	tap *connTap
}

func (c *tappedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.tap.writes.Add(1)
	c.tap.bytes.Add(int64(n))
	if op := c.tap.cur.Load(); op != nil {
		op.lastWrite.Store(nanos())
	}
	return n, err
}

func (c *tappedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		if op := c.tap.cur.Load(); op != nil {
			now := nanos()
			op.firstRead.CompareAndSwap(0, now)
			op.lastRead.Store(now)
		}
	}
	return n, err
}

// warmStack is the program-speed stack: one proxy over the always-warm
// node pool, RS(10+2) clients over loopback TCP, real clock. clients
// are the untraced pair; traced() adds a pair whose connections carry
// the tap (a wrapped net.Conn loses writev, so the tap is never on the
// connections the end-to-end numbers come from).
type warmStack struct {
	px      *proxy.Proxy
	pool    *nodePool
	clients [numClients]*client.Client
	tapped  [numClients]*client.Client
	taps    [numClients]*connTap
}

func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("warm-node%d", i)
	}
	return names
}

func newWarmStack(hotTierBytes int64) (*warmStack, error) {
	s := &warmStack{pool: &nodePool{}}
	px, err := proxy.New(proxy.Config{
		Invoker:      s.pool,
		Nodes:        nodeNames(warmNodes),
		NodeMemoryMB: 3072,
		HotTierBytes: hotTierBytes,
	})
	if err != nil {
		return nil, err
	}
	s.px = px
	for i := range s.clients {
		if s.clients[i], err = s.newClient(i, nil); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *warmStack) newClient(i int, dial func(string) (net.Conn, error)) (*client.Client, error) {
	return client.New(client.Config{
		Proxies:      []client.ProxyInfo{{Addr: s.px.Addr(), PoolSize: warmNodes}},
		DataShards:   dataShards,
		ParityShards: parityShards,
		Seed:         int64(7 + i),
		Dial:         dial,
	})
}

// traced installs tr at the node boundary and returns the tapped
// client pair (created on first use).
func (s *warmStack) traced(tr *tracer) ([numClients]*client.Client, error) {
	for i := range s.tapped {
		if s.tapped[i] != nil {
			continue
		}
		tap := &connTap{cur: &tr.cur[i]}
		c, err := s.newClient(i, func(addr string) (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &tappedConn{Conn: raw, tap: tap}, nil
		})
		if err != nil {
			return s.tapped, err
		}
		s.tapped[i], s.taps[i] = c, tap
	}
	s.pool.tr.Store(tr)
	return s.tapped, nil
}

// Close stops clients, proxy and nodes, and returns once every node
// goroutine has exited.
func (s *warmStack) Close() {
	for _, c := range append(s.clients[:], s.tapped[:]...) {
		if c != nil {
			c.Close()
		}
	}
	s.px.Close()
	s.pool.wg.Wait()
}
