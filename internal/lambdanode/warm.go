package lambdanode

import (
	"net"
	"sync"
	"sync/atomic"

	"infinicache/internal/protocol"
)

// WarmPool is an always-warm lambdaemu.Invoker: the first Invoke of a
// function starts it, once, as a goroutine that dials the proxy over
// TCP, JOINs, PONGs and then serves chunk requests off that one
// connection until the proxy hangs up — no platform, cold start,
// billing cycle or BYE.
// Each node answers through serve over its own store, exactly as an
// instance of the runtime does; only the lifetime is different. It is
// the node pool of stacks that measure or test the request plane alone.
// The counters, HoldSets and Corrupt are test affordances.
type WarmPool struct {
	Gets, Sets, Pings atomic.Int64 // chunk GETs, chunk SETs and PINGs received
	// HoldSets parks chunk SETs unanswered: counted, never stored or acked.
	HoldSets atomic.Bool

	nodes sync.Map // function name → *warmNode
	wg    sync.WaitGroup
}

// warmNode is one function's state. mu is held while the node serves a
// wake, so Corrupt never races a reply.
type warmNode struct {
	mu    sync.Mutex
	store *store
}

// Invoke starts function on its first call and does nothing after.
func (wp *WarmPool) Invoke(function string, payload []byte) error {
	pl, err := DecodePayload(payload)
	if err != nil {
		return err
	}
	n := &warmNode{store: newStore()}
	if _, started := wp.nodes.LoadOrStore(function, n); !started {
		wp.wg.Add(1)
		go wp.run(n, function, pl.ProxyAddr)
	}
	return nil
}

// Wait returns once every node goroutine has exited, which each does
// when the proxy closes its connection.
func (wp *WarmPool) Wait() { wp.wg.Wait() }

// Corrupt flips one byte of chunkKey on every node that stores it and
// reports whether any did.
func (wp *WarmPool) Corrupt(chunkKey string) bool {
	hit := false
	wp.nodes.Range(func(_, v any) bool {
		n := v.(*warmNode)
		n.mu.Lock()
		if b := n.store.chunks[chunkKey]; len(b) > 0 {
			b[len(b)/2] ^= 0x40
			hit = true
		}
		n.mu.Unlock()
		return true
	})
	return hit
}

func (wp *WarmPool) run(n *warmNode, name, proxyAddr string) {
	defer wp.wg.Done()
	raw, err := net.Dial("tcp", proxyAddr)
	if err != nil {
		return
	}
	conn := protocol.NewConn(raw)
	defer conn.Close()
	// A failed send leaves the connection dead, and the first Recv ends
	// the node.
	conn.Send(&protocol.Message{Type: protocol.TJoinLambda, Key: name, Addr: name})
	conn.Send(&protocol.Message{Type: protocol.TPong, Key: name})
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		// Like the runtime: everything already buffered is served under
		// one Pin, so the wake's replies coalesce into one flush.
		n.mu.Lock()
		conn.Pin()
		for err == nil {
			wp.serve(conn, n.store, name, m)
			if conn.Buffered() == 0 {
				break
			}
			m, err = conn.Recv()
		}
		// A failed flush leaves the connection dead: the next Recv ends
		// the node.
		conn.Flush()
		n.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// serve counts m and answers it through the runtime's serve, unless it
// is a SET that HoldSets parks.
func (wp *WarmPool) serve(conn *protocol.Conn, s *store, name string, m *protocol.Message) {
	switch m.Type {
	case protocol.TGet:
		wp.Gets.Add(1)
	case protocol.TPing:
		wp.Pings.Add(1)
	case protocol.TSet:
		wp.Sets.Add(1)
		if wp.HoldSets.Load() {
			m.Recycle() // parked: never stored, never acked
			return
		}
	}
	serve(conn, s, name, name, m)
}
