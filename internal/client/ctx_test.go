package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"infinicache/internal/protocol"
)

// The tests in this file drive the client's context plumbing against a
// scripted fake proxy speaking the wire protocol over loopback TCP:
// cancellation mid-GET and mid-PUT must abandon cleanly (seqs
// deregistered, CANCEL frames sent, straggler frames recycled — run
// under -race), and a loss must trigger GetOrLoadCtx's RESET path.

// fakeProxy accepts client connections and hands every post-JOIN frame
// to handle on a per-connection goroutine.
type fakeProxy struct {
	addr string
	ln   net.Listener
}

func newFakeProxy(t *testing.T, handle func(c *protocol.Conn, m *protocol.Message)) *fakeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				c := protocol.NewConn(raw)
				defer c.Close()
				first, err := c.Recv()
				if err != nil || first.Type != protocol.TJoinClient {
					return
				}
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					handle(c, m)
				}
			}()
		}
	}()
	return &fakeProxy{addr: ln.Addr().String(), ln: ln}
}

func testClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := New(Config{
		Proxies:        []ProxyInfo{{Addr: addr, PoolSize: 8}},
		DataShards:     4,
		ParityShards:   2,
		RequestTimeout: 10 * time.Second,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waiterCount reports how many seqs the client still has registered on
// its connection to addr — zero once every request released cleanly.
func waiterCount(c *Client, addr string) int {
	c.mu.Lock()
	pc := c.conns[addr]
	c.mu.Unlock()
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.waiters)
}

func TestGetCancelReleasesInFlight(t *testing.T) {
	var mu sync.Mutex
	var conn *protocol.Conn
	var getSeq uint64
	gotGet := make(chan struct{})
	gotCancel := make(chan uint64, 1)
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		switch m.Type {
		case protocol.TGet:
			mu.Lock()
			conn, getSeq = c, m.Seq
			mu.Unlock()
			close(gotGet) // withhold every DATA frame
		case protocol.TCancel:
			gotCancel <- m.Seq
		}
		m.Recycle()
	})
	c := testClient(t, fp.addr)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-gotGet
		cancel()
	}()
	_, err := c.GetObject(ctx, "abandoned")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GetObject = %v, want context.Canceled", err)
	}
	select {
	case seq := <-gotCancel:
		mu.Lock()
		want := getSeq
		mu.Unlock()
		if seq != want {
			t.Fatalf("CANCEL seq = %d, want %d", seq, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proxy never received the CANCEL frame")
	}
	if n := waiterCount(c, fp.addr); n != 0 {
		t.Fatalf("%d seqs still registered after cancel", n)
	}

	// A straggler DATA frame for the abandoned seq must be recycled by
	// the read loop, not delivered (run with -race to validate).
	mu.Lock()
	lateConn, lateSeq := conn, getSeq
	mu.Unlock()
	lateConn.Send(&protocol.Message{
		Type: protocol.TData, Seq: lateSeq,
		Args: []int64{0, 128, 4, 6}, Payload: make([]byte, 32),
	})
	time.Sleep(50 * time.Millisecond)
	if n := waiterCount(c, fp.addr); n != 0 {
		t.Fatalf("straggler re-registered %d waiters", n)
	}
}

func TestPutCancelMidWindow(t *testing.T) {
	const ackFirst = 2
	var mu sync.Mutex
	var held []uint64
	var conn *protocol.Conn
	sets := 0
	partialAcked := make(chan struct{})
	var cancels []uint64
	cancelsDone := make(chan struct{})
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		switch m.Type {
		case protocol.TSet:
			mu.Lock()
			conn = c
			sets++
			if sets <= ackFirst {
				c.Send(&protocol.Message{Type: protocol.TAck, Seq: m.Seq, Key: m.Key})
			} else {
				held = append(held, m.Seq)
			}
			if sets == 6 {
				close(partialAcked)
			}
			mu.Unlock()
		case protocol.TCancel:
			mu.Lock()
			cancels = append(cancels, m.Seq)
			// 6 chunks, 2 acked: at least the 4 held SETs are cancelled
			// (up to 6 if the acks raced the cancellation).
			if len(cancels) == 6-ackFirst {
				close(cancelsDone)
			}
			mu.Unlock()
		}
		m.Recycle()
	})
	c := testClient(t, fp.addr)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-partialAcked
		cancel()
	}()
	err := c.PutCtx(ctx, "abandoned-put", make([]byte, 64<<10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PutCtx = %v, want context.Canceled", err)
	}
	select {
	case <-cancelsDone:
	case <-time.After(5 * time.Second):
		mu.Lock()
		n := len(cancels)
		mu.Unlock()
		t.Fatalf("proxy saw %d CANCELs, want >= %d", n, 6-ackFirst)
	}
	if n := waiterCount(c, fp.addr); n != 0 {
		t.Fatalf("%d seqs still registered after cancelled PUT", n)
	}

	// Late ACKs for the held chunks must be dropped and recycled.
	mu.Lock()
	lateConn, late := conn, append([]uint64(nil), held...)
	mu.Unlock()
	for _, seq := range late {
		lateConn.Send(&protocol.Message{Type: protocol.TAck, Seq: seq})
	}
	time.Sleep(50 * time.Millisecond)
	if n := waiterCount(c, fp.addr); n != 0 {
		t.Fatalf("late ACKs re-registered %d waiters", n)
	}
}

func TestGetCtxDeadline(t *testing.T) {
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		m.Recycle() // never answer
	})
	c := testClient(t, fp.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.GetCtx(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetCtx = %v, want context.DeadlineExceeded", err)
	}
}

// TestTimeoutRedials: a request timeout closes the connection it waited
// on, so the next operation dials afresh. A proxy whose reader is stuck
// mid-frame — a length field garbled on the wire — answers nothing on
// that connection ever again, and every request sent down it would time
// out in turn.
func TestTimeoutRedials(t *testing.T) {
	var mu sync.Mutex
	var stuck *protocol.Conn
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		mu.Lock()
		if stuck == nil {
			stuck = c
		}
		answer := c != stuck && m.Type == protocol.TGet
		mu.Unlock()
		if answer {
			c.Send(&protocol.Message{Type: protocol.TMiss, Seq: m.Seq, Key: m.Key})
		}
		m.Recycle()
	})
	c, err := New(Config{
		Proxies:        []ProxyInfo{{Addr: fp.addr, PoolSize: 8}},
		DataShards:     4,
		ParityShards:   2,
		RequestTimeout: 50 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.GetCtx(context.Background(), "k"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("GET on the silent connection = %v, want ErrTimeout", err)
	}
	if _, err := c.GetCtx(context.Background(), "k"); !errors.Is(err, ErrMiss) {
		t.Fatalf("GET after the timeout = %v, want ErrMiss over a fresh connection", err)
	}
}

// TestGeometryMismatchFailsLoudly: a client whose RS code disagrees
// with the object's (per-client WithShards against a differently-coded
// deployment) must surface an error, not silently return truncated or
// wrongly-decoded bytes — DATA frames carry the authoritative geometry.
func TestGeometryMismatchFailsLoudly(t *testing.T) {
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		if m.Type == protocol.TGet {
			// The stored object is RS(4+2); this client speaks RS(2+1).
			c.Send(&protocol.Message{
				Type: protocol.TData, Seq: m.Seq, Key: m.Key,
				Args: []int64{0, 1024, 4, 6}, Payload: make([]byte, 256),
			})
		}
		m.Recycle()
	})
	c, err := New(Config{
		Proxies:        []ProxyInfo{{Addr: fp.addr, PoolSize: 8}},
		DataShards:     2,
		ParityShards:   1,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.GetObject(context.Background(), "mismatched"); !errors.Is(err, ErrRejected) {
		t.Fatalf("GetObject with wrong code = %v, want ErrRejected geometry error", err)
	}
}

// TestGetOrLoadLossReset drives the loss-triggered RESET path: the
// proxy reports the object lost (> p chunks reclaimed), so GetOrLoadCtx
// must reload from the backing store, count a Reset, and re-insert.
func TestGetOrLoadLossReset(t *testing.T) {
	var mu sync.Mutex
	resetSets := 0
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		switch m.Type {
		case protocol.TGet:
			// Arg 1 marks a loss, not a cold miss.
			c.Send(&protocol.Message{Type: protocol.TMiss, Seq: m.Seq, Key: m.Key, Args: []int64{1}})
		case protocol.TSet:
			mu.Lock()
			resetSets++
			mu.Unlock()
			c.Send(&protocol.Message{Type: protocol.TAck, Seq: m.Seq, Key: m.Key})
		}
		m.Recycle()
	})
	c := testClient(t, fp.addr)

	loads := 0
	payload := []byte("reloaded from the backing store")
	got, err := c.GetOrLoadCtx(context.Background(), "lost-object", func(context.Context) ([]byte, error) {
		loads++
		return payload, nil
	})
	if err != nil || string(got) != string(payload) {
		t.Fatalf("GetOrLoadCtx after loss: %v", err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	if n := c.Stats().Resets.Load(); n != 1 {
		t.Fatalf("Resets = %d, want 1", n)
	}
	if n := c.Stats().Losses.Load(); n != 1 {
		t.Fatalf("Losses = %d, want 1", n)
	}
	mu.Lock()
	n := resetSets
	mu.Unlock()
	if n != 6 {
		t.Fatalf("RESET re-inserted %d chunks, want 6 (4+2)", n)
	}
}
