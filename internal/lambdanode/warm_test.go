package lambdanode

import (
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/protocol"
)

// fakeProxy is a loopback listener standing in for the proxy: it counts
// the node connections it accepts and delivers each, wrapped, on conns
// (hanging up on any that find conns full). payload invokes a function
// against it.
type fakeProxy struct {
	ln      net.Listener
	payload []byte
	accepts atomic.Int64
	conns   chan *protocol.Conn
	done    chan struct{} // closed when the accept loop exits
}

func newFakeProxy(t *testing.T) *fakeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakeProxy{
		ln:      ln,
		payload: (&Payload{Cmd: CmdRequest, ProxyAddr: ln.Addr().String()}).Encode(),
		conns:   make(chan *protocol.Conn, 16),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(fp.done)
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			fp.accepts.Add(1)
			select {
			case fp.conns <- protocol.NewConn(raw):
			default: // more connections than any test takes: hang up
				raw.Close()
			}
		}
	}()
	t.Cleanup(fp.close)
	return fp
}

// close stops accepting and returns once the accept loop has exited.
func (fp *fakeProxy) close() {
	fp.ln.Close()
	<-fp.done
}

// accept takes the next node connection and reads its JOIN and PONG.
func (fp *fakeProxy) accept(t *testing.T, name string) *protocol.Conn {
	t.Helper()
	c := <-fp.conns
	for _, want := range []protocol.Type{protocol.TJoinLambda, protocol.TPong} {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != want || m.Key != name {
			t.Fatalf("node announced %v %q, want %v %q", m.Type, m.Key, want, name)
		}
	}
	return c
}

// waitPool fails t unless wp.Wait returns within a few seconds.
func waitPool(t *testing.T, wp *WarmPool) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wp.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WarmPool.Wait did not return after the proxy hung up on every node")
	}
}

// TestWarmPoolDialsOncePerFunction: however often a function is
// invoked, the pool starts it once — one connection, one JOIN — and
// Wait returns once the proxy side has hung up on every node.
func TestWarmPoolDialsOncePerFunction(t *testing.T) {
	fp := newFakeProxy(t)
	wp := &WarmPool{}
	for i := 0; i < 10; i++ {
		for _, fn := range []string{"fn-a", "fn-b"} {
			if err := wp.Invoke(fn, fp.payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		c := <-fp.conns
		m, err := c.Recv()
		if err != nil || m.Type != protocol.TJoinLambda {
			t.Fatalf("first frame %v, %v; want JOIN_LAMBDA", m, err)
		}
		seen[m.Key] = true
		c.Close()
	}
	// A second connection for either function keeps Wait from returning
	// while it is open, and shows in accepts once it is closed.
	waitPool(t, wp)
	fp.close()
	if n := fp.accepts.Load(); n != 2 || !seen["fn-a"] || !seen["fn-b"] {
		t.Fatalf("%d connections joining %v; want one per function", n, seen)
	}
}

// TestWarmPoolSetRecyclesReplacedBuffer pins the runtime's store rule
// on the pool's nodes: a SET keeps the frame's pooled payload without a
// copy and hands the buffer it replaces back to bufpool, where the next
// SET's read draws it again. Overwriting one 64 KiB chunk therefore
// allocates next to nothing; keeping a copy, or dropping the replaced
// buffer, allocates a whole chunk per SET.
func TestWarmPoolSetRecyclesReplacedBuffer(t *testing.T) {
	const size, sets = 64 << 10, 64
	fp := newFakeProxy(t)
	wp := &WarmPool{}
	if err := wp.Invoke("fn", fp.payload); err != nil {
		t.Fatal(err)
	}
	c := fp.accept(t, "fn")
	payload := make([]byte, size)
	seq := uint64(0)
	set := func() {
		seq++
		if err := c.Forward(protocol.TSet, seq, "obj#0", "", nil, payload); err != nil {
			t.Fatal(err)
		}
		m, err := c.Recv()
		if err != nil || m.Type != protocol.TAck || m.Seq != seq {
			t.Fatalf("SET %d answered %v, %v", seq, m, err)
		}
		m.Free()
	}
	set()
	// Min over a few attempts: a GC pass empties bufpool's sync.Pools and
	// charges the refill to whichever window is unlucky.
	best := uint64(math.MaxUint64)
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < sets; i++ {
			set()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/sets)
	}
	if best > size/2 {
		t.Fatalf("an overwriting SET allocates %d bytes, want well under the %d-byte chunk", best, size)
	}
	c.Close()
	waitPool(t, wp)
}
