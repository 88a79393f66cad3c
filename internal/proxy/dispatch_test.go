package proxy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/lambdanode"
	"infinicache/internal/netsim"
	"infinicache/internal/protocol"
)

// The tests in this file drive the node dispatcher's hard edges with
// scripted fake Lambda nodes speaking the wire protocol over loopback
// TCP: pipelining with at most one preflight per busy period, a backup
// connection swap (Maybe) with a full in-flight window, a mid-window
// BYE, stale responses after a retry, a connection dying under an
// invocation, a request arriving under a warm-up, a reply stream
// broken mid-frame — and, over the
// in-process transport, whose bounded buffer can hold the dispatcher
// mid-frame, a reply that overtakes the re-driven copy of its own
// request.

// invokerFunc adapts a function to the lambdaemu.Invoker interface.
type invokerFunc func(name string, payload []byte) error

func (f invokerFunc) Invoke(name string, payload []byte) error { return f(name, payload) }

func testProxy(t *testing.T, inv invokerFunc) *Proxy {
	t.Helper()
	p, err := New(Config{
		Invoker:        inv,
		Nodes:          []string{"test-node"},
		NodeMemoryMB:   128,
		PingTimeout:    300 * time.Millisecond,
		InvokeTimeout:  2 * time.Second,
		RequestTimeout: 400 * time.Millisecond,
		Retries:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// joinProxy dials the proxy and announces a Lambda connection.
func joinProxy(t *testing.T, addr, name string, backup bool) *protocol.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return joinOver(t, raw, name, backup)
}

// joinOver announces a Lambda connection on an established transport.
func joinOver(t *testing.T, raw net.Conn, name string, backup bool) *protocol.Conn {
	t.Helper()
	c := protocol.NewConn(raw)
	flag := int64(0)
	if backup {
		flag = 1
	}
	if err := c.Send(&protocol.Message{
		Type: protocol.TJoinLambda, Key: name, Addr: "inst-" + name,
		Args: []int64{128, flag},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// awaitReply reads one dispatcher outcome with a wall-clock guard.
func awaitReply(t *testing.T, ch chan nodeReply) nodeReply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a dispatcher reply")
		return nodeReply{}
	}
}

// waitUntil polls cond with a wall-clock guard; call it from the test's
// own goroutine.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// proxyAddrFromPayload recovers the proxy address an invocation carries.
func proxyAddrFromPayload(t *testing.T, payload []byte) string {
	t.Helper()
	pl, err := lambdanode.DecodePayload(payload)
	if err != nil {
		t.Errorf("bad invoke payload: %v", err)
		return ""
	}
	return pl.ProxyAddr
}

// TestPipelinedWindowSinglePreflight is the tentpole property: N>1
// requests ride the connection simultaneously — the fake node withholds
// every ACK until it has received all N frames, which deadlocks a
// lock-step one-at-a-time design — and the whole busy period costs at
// most one preflight PING (here zero: the invocation's own PONG
// validates the Sleeping→Active edge, §3.3 / Figure 6).
func TestPipelinedWindowSinglePreflight(t *testing.T) {
	const n = 16
	var pings, invokes atomic.Int64
	var p *Proxy
	inv := invokerFunc(func(name string, payload []byte) error {
		if invokes.Add(1) > 1 {
			return nil // the node is already up; ignore warm invokes
		}
		addr := proxyAddrFromPayload(t, payload)
		go func() {
			c := joinProxy(t, addr, "test-node", false)
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			var held []uint64
			for len(held) < n {
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch m.Type {
				case protocol.TPing:
					pings.Add(1)
					c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
				case protocol.TSet:
					held = append(held, m.Seq) // hold the window open
					m.Recycle()
				}
			}
			for _, seq := range held {
				c.Send(&protocol.Message{Type: protocol.TAck, Seq: seq})
			}
			for { // keep answering pings so the period stays busy
				m, err := c.Recv()
				if err != nil {
					return
				}
				if m.Type == protocol.TPing {
					pings.Add(1)
					c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
				}
			}
		}()
		return nil
	})
	p = testProxy(t, inv)

	ch := make(chan nodeReply, n)
	for i := 0; i < n; i++ {
		if !p.nodes[0].submit(protocol.TSet, p.nextSeq(), fmt.Sprintf("obj#%d", i), []byte("chunk"), ch) {
			t.Fatal("submit refused")
		}
	}
	for i := 0; i < n; i++ {
		r := awaitReply(t, ch)
		if r.Msg == nil || r.Msg.Type != protocol.TAck {
			t.Fatalf("request %d failed: %+v", i, r.Msg)
		}
	}
	if got := pings.Load(); got > 1 {
		t.Fatalf("busy period used %d preflight PINGs, want <= 1", got)
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
		t.Fatalf("%d chunk failures", fails)
	}
}

// TestBackupSwapRedrivesWindow swaps the connection mid-window: the
// source node absorbs the whole window without answering, then a
// backup destination joins (Figure 10 step 9). The dispatcher must
// adopt the new connection (Maybe), re-drive every in-flight request
// on it, and deliver all of them — without burning the retry budget.
func TestBackupSwapRedrivesWindow(t *testing.T) {
	const n = 8
	var invokes atomic.Int64
	srcGotWindow := make(chan string) // carries the proxy addr
	inv := invokerFunc(func(name string, payload []byte) error {
		if invokes.Add(1) > 1 {
			return nil
		}
		addr := proxyAddrFromPayload(t, payload)
		go func() {
			c := joinProxy(t, addr, "test-node", false)
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			for got := 0; got < n; {
				m, err := c.Recv()
				if err != nil {
					return
				}
				if m.Type == protocol.TSet {
					got++ // swallow the whole window, never answer
					m.Recycle()
				}
			}
			srcGotWindow <- addr
			for { // hold the connection open until the proxy closes it
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}()
		return nil
	})
	p := testProxy(t, inv)

	ch := make(chan nodeReply, n)
	for i := 0; i < n; i++ {
		p.nodes[0].submit(protocol.TSet, p.nextSeq(), fmt.Sprintf("obj#%d", i), []byte("chunk"), ch)
	}
	var addr string
	select {
	case addr = <-srcGotWindow:
	case <-time.After(10 * time.Second):
		t.Fatal("source never received the window")
	}

	// The backup destination takes over, like runBackupDest does:
	// JOIN with the backup flag, then an immediate PONG.
	dst := joinProxy(t, addr, "test-node", true)
	defer dst.Close()
	dst.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
	go func() {
		for {
			m, err := dst.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case protocol.TPing:
				dst.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
			case protocol.TSet:
				dst.Send(&protocol.Message{Type: protocol.TAck, Key: m.Key, Seq: m.Seq})
				m.Recycle()
			}
		}
	}()

	for i := 0; i < n; i++ {
		r := awaitReply(t, ch)
		if r.Msg == nil || r.Msg.Type != protocol.TAck {
			t.Fatalf("request %d failed after backup swap: %+v", i, r.Msg)
		}
	}
	if st := p.nodes[0].State(); st != stateMaybe {
		t.Fatalf("state after backup join = %v, want Maybe", st)
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
		t.Fatalf("%d chunk failures across the swap", fails)
	}
}

// TestMidWindowByeRedrives sends a BYE with most of the window
// unanswered: the node ACKs a few requests, says goodbye (billing-cycle
// expiry, Figure 7 step 13), and must be re-invoked; the re-invocation
// serves the re-driven remainder on the same connection.
func TestMidWindowByeRedrives(t *testing.T) {
	const n, early = 8, 3
	var invokes atomic.Int64
	reinvoked := make(chan struct{})
	inv := invokerFunc(func(name string, payload []byte) error {
		count := invokes.Add(1)
		if count == 2 {
			close(reinvoked) // second life: the connection persists
			return nil
		}
		if count > 2 {
			return nil
		}
		addr := proxyAddrFromPayload(t, payload)
		go func() {
			c := joinProxy(t, addr, "test-node", false)
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			for got := 0; got < n; {
				m, err := c.Recv()
				if err != nil {
					return
				}
				if m.Type == protocol.TSet {
					got++
					if got <= early {
						c.Send(&protocol.Message{Type: protocol.TAck, Key: m.Key, Seq: m.Seq})
					}
					m.Recycle()
				}
			}
			// Billed duration over: leave with the window unanswered.
			c.Send(&protocol.Message{Type: protocol.TBye, Key: "test-node"})
			<-reinvoked
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch m.Type {
				case protocol.TPing:
					c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
				case protocol.TSet:
					c.Send(&protocol.Message{Type: protocol.TAck, Key: m.Key, Seq: m.Seq})
					m.Recycle()
				}
			}
		}()
		return nil
	})
	p := testProxy(t, inv)

	ch := make(chan nodeReply, n)
	for i := 0; i < n; i++ {
		p.nodes[0].submit(protocol.TSet, p.nextSeq(), fmt.Sprintf("obj#%d", i), []byte("chunk"), ch)
	}
	for i := 0; i < n; i++ {
		r := awaitReply(t, ch)
		if r.Msg == nil || r.Msg.Type != protocol.TAck {
			t.Fatalf("request %d failed across the BYE: %+v", i, r.Msg)
		}
	}
	if got := invokes.Load(); got < 2 {
		t.Fatalf("BYE with a pending window did not re-invoke (invokes=%d)", got)
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
		t.Fatalf("%d chunk failures across the BYE", fails)
	}
}

// TestStaleResponsesAfterRetry covers the stale-seq semantics: the node
// ignores a request until the proxy times it out, retries (after a
// preflight PING revalidates the connection), and then the node answers
// — preceded by responses bearing seqs the dispatcher has never issued
// or has already abandoned. The stale frames must be dropped without
// confusing the retried request or the ones after it.
func TestStaleResponsesAfterRetry(t *testing.T) {
	var invokes atomic.Int64
	var pings atomic.Int64
	inv := invokerFunc(func(name string, payload []byte) error {
		if invokes.Add(1) > 1 {
			return nil
		}
		addr := proxyAddrFromPayload(t, payload)
		go func() {
			c := joinProxy(t, addr, "test-node", false)
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			ignored := false
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch m.Type {
				case protocol.TPing:
					pings.Add(1)
					c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
				case protocol.TSet:
					if !ignored {
						// First delivery: swallow it so the proxy's
						// request timer expires and it retries.
						ignored = true
						m.Recycle()
						continue
					}
					// Retry delivery: stale garbage first, then the
					// real answer.
					c.Send(&protocol.Message{Type: protocol.TAck, Key: "stale", Seq: m.Seq + 9999})
					c.Send(&protocol.Message{Type: protocol.TData, Key: "stale", Seq: m.Seq + 10000, Payload: []byte("zombie")})
					c.Send(&protocol.Message{Type: protocol.TAck, Key: m.Key, Seq: m.Seq})
					m.Recycle()
				}
			}
		}()
		return nil
	})
	p := testProxy(t, inv)

	ch := make(chan nodeReply, 2)
	seq := p.nextSeq()
	p.nodes[0].submit(protocol.TSet, seq, "obj#0", []byte("chunk"), ch)
	r := awaitReply(t, ch)
	if r.Msg == nil || r.Msg.Type != protocol.TAck || r.Seq != seq {
		t.Fatalf("retried request got %+v (seq %d), want ACK for %d", r.Msg, r.Seq, seq)
	}
	if got := p.Stats().Reinvokes.Load(); got == 0 {
		t.Fatal("timeout retry did not register")
	}
	if got := pings.Load(); got != 1 {
		t.Fatalf("retry used %d preflight PINGs, want exactly 1 (timeout demotes validation)", got)
	}

	// The dispatcher must still be healthy: a fresh request round-trips.
	seq2 := p.nextSeq()
	p.nodes[0].submit(protocol.TSet, seq2, "obj#1", []byte("chunk"), ch)
	r = awaitReply(t, ch)
	if r.Msg == nil || r.Msg.Type != protocol.TAck || r.Seq != seq2 {
		t.Fatalf("post-stale request got %+v, want ACK", r.Msg)
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
		t.Fatalf("%d chunk failures", fails)
	}
}

// TestExhaustedRetriesFailCleanly starves a request entirely: the node
// never answers and never PONGs again after its first life, so the
// request must burn its attempts and come back as a nil outcome
// (counted in ChunkFailures), not hang.
func TestExhaustedRetriesFailCleanly(t *testing.T) {
	var invokes atomic.Int64
	inv := invokerFunc(func(name string, payload []byte) error {
		if invokes.Add(1) > 1 {
			return nil // stay silent: validation rounds must expire
		}
		addr := proxyAddrFromPayload(t, payload)
		go func() {
			c := joinProxy(t, addr, "test-node", false)
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			for { // swallow everything, answer nothing
				m, err := c.Recv()
				if err != nil {
					return
				}
				m.Recycle()
			}
		}()
		return nil
	})
	p := testProxy(t, inv)

	ch := make(chan nodeReply, 1)
	seq := p.nextSeq()
	p.nodes[0].submit(protocol.TSet, seq, "obj#0", []byte("chunk"), ch)
	r := awaitReply(t, ch)
	if r.Msg != nil {
		t.Fatalf("starved request returned %+v, want nil failure", r.Msg)
	}
	if r.Seq != seq {
		t.Fatalf("failure echoed seq %d, want %d", r.Seq, seq)
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 1 {
		t.Fatalf("ChunkFailures = %d, want 1", fails)
	}
}

// TestWindowRefillOnResponses: responses are delivered by the
// connection reader without waking the dispatcher loop, so the loop
// must still learn that window slots freed up — a queue deeper than
// maxInflight has to drain promptly via the reader's kick, not at the
// next RequestTimeout-scale timer pop.
func TestWindowRefillOnResponses(t *testing.T) {
	const n = maxInflight + 64
	// The node joins only after every submission is parked with the
	// dispatcher, so ONE pump fills the whole window (its frames reach
	// the node in one pinned flush) and the beyond-window tail is
	// provably queued before any ack can free a slot. The node then acks
	// the full window at once: only the reader's kick can get the tail
	// sent promptly — the loop has no further submissions to wake on.
	ready := make(chan struct{})
	var invokes atomic.Int64
	inv := invokerFunc(func(name string, payload []byte) error {
		if invokes.Add(1) > 1 {
			return nil
		}
		addr := proxyAddrFromPayload(t, payload)
		go func() {
			<-ready
			c := joinProxy(t, addr, "test-node", false)
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			var held []uint64
			released := false
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch m.Type {
				case protocol.TPing:
					c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
				case protocol.TSet:
					m.Recycle()
					if released {
						c.Send(&protocol.Message{Type: protocol.TAck, Seq: m.Seq})
						continue
					}
					held = append(held, m.Seq)
					if len(held) == maxInflight {
						released = true
						for _, seq := range held {
							c.Send(&protocol.Message{Type: protocol.TAck, Seq: seq})
						}
						held = nil
					}
				}
			}
		}()
		return nil
	})
	p := testProxy(t, inv)

	ch := make(chan nodeReply, n)
	for i := 0; i < n; i++ {
		if !p.nodes[0].submit(protocol.TSet, p.nextSeq(), fmt.Sprintf("chunk-%d", i), nil, ch) {
			t.Fatal("submit refused")
		}
	}
	start := time.Now()
	close(ready)
	for i := 0; i < n; i++ {
		r := awaitReply(t, ch)
		if r.Msg == nil || r.Msg.Type != protocol.TAck {
			t.Fatalf("reply %d: %+v", i, r.Msg)
		}
		r.Msg.Recycle()
	}
	// The whole queue must clear promptly: without the refill kick, the
	// beyond-window tail is not even sent until some unrelated timer
	// pops (the stale 300 ms validation timer here, the 400 ms request
	// expiry in general). The healthy path drains in single-digit
	// milliseconds; anything approaching timer scale is the stall.
	if elapsed := time.Since(start); elapsed >= 150*time.Millisecond {
		t.Fatalf("queue beyond maxInflight took %v to drain (stalled until timer pop)", elapsed)
	}
	if f := p.stats.ChunkFailures.Load(); f != 0 {
		t.Fatalf("%d chunk failures during refill", f)
	}
}

// TestEarlyReplyWaitsForSend pins the payload-ownership rule of the
// window: a reply may not reach the submitter (who then recycles the
// request's payload) while pump is still sending that payload. The
// shape is a re-driven SET: the node buffers the first copy, says BYE,
// and its next life answers that copy while the dispatcher is mid-way
// through sending the second — held there by the transport's bounded
// buffer, since the payload is larger than it and the node is not
// reading. The reply must wait for the send, and the duplicate the node
// then drains must carry the original bytes even though the submitter
// scribbles over the payload the moment its reply arrives.
func TestEarlyReplyWaitsForSend(t *testing.T) {
	const size = 3 << 20 // over the transport's per-direction buffer
	original := make([]byte, size)
	for i := range original {
		original[i] = byte(i * 7)
	}
	payload := append([]byte(nil), original...)

	nw := netsim.NewNetwork()
	var invokes atomic.Int64
	reinvoked := make(chan struct{})
	answer := make(chan struct{})     // test -> node: ack the first copy now
	drain := make(chan struct{})      // test -> node: read the duplicate now
	duplicate := make(chan []byte, 1) // node -> test: the duplicate's payload
	inv := invokerFunc(func(name string, _ []byte) error {
		switch invokes.Add(1) {
		case 1:
			go func() {
				raw, err := nw.Dial("proxy")
				if err != nil {
					t.Error(err)
					return
				}
				c := joinOver(t, raw, "test-node", false)
				defer c.Close()
				c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
				first, err := c.Recv()
				if err != nil || first.Type != protocol.TSet {
					t.Errorf("first copy: %+v, %v", first, err)
					return
				}
				first.Recycle()
				// Billed duration over with the SET unanswered; the next
				// life validates and then sits on its socket.
				c.Send(&protocol.Message{Type: protocol.TBye, Key: "test-node"})
				<-reinvoked
				c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
				<-answer
				c.Send(&protocol.Message{Type: protocol.TAck, Key: first.Key, Seq: first.Seq})
				<-drain
				second, err := c.Recv()
				if err != nil || second.Type != protocol.TSet || second.Seq != first.Seq {
					t.Errorf("duplicate: %+v, %v", second, err)
					duplicate <- nil
					return
				}
				duplicate <- second.Payload
				for { // hold the connection until the proxy closes it
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		case 2:
			close(reinvoked)
		}
		return nil
	})
	p, err := New(Config{
		Invoker:      inv,
		Nodes:        []string{"test-node"},
		NodeMemoryMB: 128,
		ListenAddr:   "proxy",
		Listen:       nw.Listen,
		// Wall-clock timeouts, all far beyond what the script needs: no
		// timer may fire while the test holds the dispatcher mid-frame.
		PingTimeout: 30 * time.Second, InvokeTimeout: 30 * time.Second, RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// On any exit let the scripted node run to its end first, or a
	// failed assertion leaves Close waiting on a dispatcher the node
	// holds mid-frame.
	release := func(c chan struct{}) {
		select {
		case <-c:
		default:
			close(c)
		}
	}
	defer release(drain)
	defer release(answer)
	nm := p.nodes[0]

	ch := make(chan nodeReply, 1)
	seq := p.nextSeq()
	nm.submit(protocol.TSet, seq, "obj#0", payload, ch)

	// entry reads the window entry's send state once the request has
	// been re-driven (the second invocation is the BYE's re-drive).
	entry := func() (sending, parked bool) {
		select {
		case <-reinvoked:
		default:
			return false, false
		}
		nm.mu.Lock()
		defer nm.mu.Unlock()
		pr := nm.inflight[seq]
		return pr != nil && pr.sending, pr != nil && pr.early != nil
	}
	poll := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			select {
			case r := <-ch:
				t.Fatalf("reply %+v delivered while waiting for %s: the payload was released under the send", r.Msg, what)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	poll("pump to be mid-frame on the re-driven SET", func() bool { s, _ := entry(); return s })
	release(answer)
	poll("the early ACK to be parked on the entry", func() bool { _, parked := entry(); return parked })
	release(drain)

	r := awaitReply(t, ch)
	if r.Msg == nil || r.Msg.Type != protocol.TAck || r.Seq != seq {
		t.Fatalf("re-driven SET got %+v (seq %d), want the ACK for %d", r.Msg, r.Seq, seq)
	}
	for i := range payload { // the payload is ours again: its next owner writes
		payload[i] = 0xFF
	}
	select {
	case got := <-duplicate:
		if !bytes.Equal(got, original) {
			t.Fatal("the duplicate SET does not carry the original bytes: the payload was reused while it was being sent")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the node never received the duplicate")
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
		t.Fatalf("%d chunk failures", fails)
	}
}

// TestConnDropDuringInvokeWait: the proxy still holds the connection of
// the node's previous life (asleep after its BYE) when a request makes
// it invoke the function — and that connection then dies, its instance
// reclaimed. The death belongs to the old life, not to the invocation
// under way: the dispatcher must keep waiting for the invoked instance
// to join, not invoke again. A second invocation queues behind the
// first inside the platform, on the dispatcher's own goroutine, so the
// first runs out its billing cycle unserved, and so does every one
// after it.
func TestConnDropDuringInvokeWait(t *testing.T) {
	var invokes atomic.Int64
	firstLife := make(chan *protocol.Conn, 1)
	var p *Proxy
	serve := func(c *protocol.Conn) {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case protocol.TPing:
				c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
			case protocol.TSet:
				c.Send(&protocol.Message{Type: protocol.TAck, Key: m.Key, Seq: m.Seq})
				m.Recycle()
				// Billing cycle over: back to sleep, connection kept.
				c.Send(&protocol.Message{Type: protocol.TBye, Key: "test-node"})
			}
		}
	}
	inv := invokerFunc(func(name string, payload []byte) error {
		addr := proxyAddrFromPayload(t, payload)
		switch invokes.Add(1) {
		case 1:
			go func() {
				c := joinProxy(t, addr, "test-node", false)
				c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
				firstLife <- c
				serve(c)
			}()
		case 2:
			go func() {
				// The instance the proxy is connected to is reclaimed
				// while this invocation (of a peer replica) starts up.
				(<-firstLife).Close()
				for deadline := time.Now().Add(10 * time.Second); p.nodes[0].connMirror.Load() != nil; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Error("the proxy never noticed its node connection die")
						return
					}
				}
				c := joinProxy(t, addr, "test-node", false)
				defer c.Close()
				c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
				serve(c)
			}()
		}
		return nil
	})
	p = testProxy(t, inv)

	ch := make(chan nodeReply, 1)
	for i := 0; i < 2; i++ {
		// Request 0 wakes the node; request 1 finds it asleep on a live
		// connection, which dies under the invocation it triggers.
		if i == 1 {
			waitUntil(t, "the node to go back to sleep", func() bool { return p.nodes[0].State() == stateSleeping })
		}
		seq := p.nextSeq()
		p.nodes[0].submit(protocol.TSet, seq, fmt.Sprintf("obj#%d", i), []byte("chunk"), ch)
		if r := awaitReply(t, ch); r.Msg == nil || r.Msg.Type != protocol.TAck || r.Seq != seq {
			t.Fatalf("request %d got %+v, want its ACK", i, r.Msg)
		}
	}
	if got := invokes.Load(); got != 2 {
		t.Fatalf("%d invocations for two busy periods, want 2: the old connection's death re-invoked under the invocation in flight", got)
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
		t.Fatalf("%d chunk failures", fails)
	}
}

// TestBrokenStreamRedials: a reply frame whose length field was garbled
// in transit leaves the dispatcher's reader waiting for payload bytes
// that never come, and every later frame the node sends — ACKs, PONGs —
// vanishes behind them. The node is alive and keeps its connection, so
// only the dispatcher can end it: once a validation round goes
// unanswered, the connection must be dropped, making the node redial on
// its next invocation instead of PONGing down the same broken stream.
func TestBrokenStreamRedials(t *testing.T) {
	var invokes atomic.Int64
	firstLife := make(chan *protocol.Conn, 1)
	firstDead := make(chan struct{})
	serve := func(c *protocol.Conn, onSet func(m *protocol.Message)) {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case protocol.TPing:
				c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
			case protocol.TSet:
				onSet(m)
				c.Send(&protocol.Message{Type: protocol.TAck, Key: m.Key, Seq: m.Seq})
				m.Recycle()
			}
		}
	}
	inv := invokerFunc(func(name string, payload []byte) error {
		addr := proxyAddrFromPayload(t, payload)
		switch invokes.Add(1) {
		case 1:
			go func() {
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					t.Error(err)
					return
				}
				c := joinOver(t, raw, "test-node", false)
				c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
				firstLife <- c
				broken := false
				serve(c, func(m *protocol.Message) {
					if broken {
						return
					}
					broken = true
					// A DATA header announcing 1 MiB of payload, and none
					// of it: the dispatcher's reader stalls here.
					hdr := []byte{byte(protocol.TData), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x10, 0x00, 0x00}
					binary.BigEndian.PutUint64(hdr[1:9], m.Seq)
					raw.Write(hdr)
				})
				close(firstDead)
			}()
		default:
			go func() {
				// The runtime reuses a live connection (ensureConn) and
				// redials a dead one.
				select {
				case <-firstDead:
				case <-time.After(time.Second):
					(<-firstLife).Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
					return
				}
				c := joinProxy(t, addr, "test-node", false)
				defer c.Close()
				c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
				serve(c, func(*protocol.Message) {})
			}()
		}
		return nil
	})
	p := testProxy(t, inv)

	ch := make(chan nodeReply, 1)
	seq := p.nextSeq()
	p.nodes[0].submit(protocol.TSet, seq, "obj#0", []byte("chunk"), ch)
	if r := awaitReply(t, ch); r.Msg == nil || r.Msg.Type != protocol.TAck || r.Seq != seq {
		t.Fatalf("request behind a broken stream got %+v, want its ACK over a redialled connection", r.Msg)
	}
	if got := invokes.Load(); got != 2 {
		t.Fatalf("%d invocations, want 2: one broken life, one redialled", got)
	}
}

// TestRequestDuringWarmupRidesIt: a warm-up is an invocation like any
// other, so a request that arrives while one is starting must wait for
// the warmed instance and be served by it — not invoke the function a
// second time (which the platform would queue behind the warm-up and,
// past its scale-out delay, answer with an empty replica). And a node
// that is already running is not warmed at all.
func TestRequestDuringWarmupRidesIt(t *testing.T) {
	var invokes atomic.Int64
	cmds := make(chan string, 4)
	requested := make(chan struct{})
	inv := invokerFunc(func(name string, payload []byte) error {
		pl, err := lambdanode.DecodePayload(payload)
		if err != nil {
			t.Errorf("bad invoke payload: %v", err)
			return nil
		}
		cmds <- pl.Cmd
		if invokes.Add(1) > 1 {
			return nil
		}
		go func() {
			<-requested // still cold-starting when the request comes in
			c := joinProxy(t, pl.ProxyAddr, "test-node", false)
			defer c.Close()
			c.Send(&protocol.Message{Type: protocol.TPong, Key: "test-node"})
			for { // stays up: no BYE
				m, err := c.Recv()
				if err != nil {
					return
				}
				switch m.Type {
				case protocol.TPing:
					c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
				case protocol.TSet:
					c.Send(&protocol.Message{Type: protocol.TAck, Key: m.Key, Seq: m.Seq})
					m.Recycle()
				}
			}
		}()
		return nil
	})
	p := testProxy(t, inv)
	nm := p.nodes[0]

	p.Warmup()
	select {
	case cmd := <-cmds:
		if cmd != lambdanode.CmdWarmup {
			t.Fatalf("warm-up invoked with cmd %q", cmd)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Warmup never invoked the sleeping node")
	}
	ch := make(chan nodeReply, 1)
	roundTrip := func(key string) {
		t.Helper()
		seq := p.nextSeq()
		nm.submit(protocol.TSet, seq, key, []byte("chunk"), ch)
		if key == "obj#0" {
			close(requested)
		}
		if r := awaitReply(t, ch); r.Msg == nil || r.Msg.Type != protocol.TAck || r.Seq != seq {
			t.Fatalf("%s got %+v, want its ACK", key, r.Msg)
		}
	}
	roundTrip("obj#0")

	// The node is up now: a warm-up tick must find nothing to do. The
	// round trip after it proves the dispatcher has taken the tick.
	p.Warmup()
	waitUntil(t, "the dispatcher to take the warm-up tick", func() bool { return len(nm.warmCh) == 0 })
	roundTrip("obj#1")
	if got := invokes.Load(); got != 1 {
		t.Fatalf("%d invocations, want 1: the warm-up alone (a request under it, and a tick on a running node, add none)", got)
	}
}
