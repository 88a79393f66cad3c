package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/lambdanode"
	"infinicache/internal/protocol"
)

// The tests in this file drive the batched and cancellable client API
// through a real proxy against scripted fake Lambda nodes: an MGet must
// reach the node pool as one windowed burst, and a client-side context
// cancellation must travel client → session → node dispatcher and free
// the window slots it held.

// burstNode is a scripted always-warm Lambda node for the batch tests:
// it serves SET/DEL immediately, counts PINGs, and can be told to
// withhold GET responses until a whole burst has arrived (holdGets > 0)
// or until released externally (withhold).
type burstNode struct {
	mu       sync.Mutex
	store    map[string][]byte
	pings    atomic.Int64
	holdGets int // answer GETs only once this many are pending

	withhold atomic.Bool // park GETs on heldCh instead of answering
	heldCh   chan uint64 // seqs of parked GETs
	started  atomic.Bool // only the first invoke dials
	conn     *protocol.Conn
	connMu   sync.Mutex
}

func (bn *burstNode) Invoke(function string, payload []byte) error {
	pl, err := lambdanode.DecodePayload(payload)
	if err != nil {
		return err
	}
	if !bn.started.CompareAndSwap(false, true) {
		return nil
	}
	go bn.run(function, pl.ProxyAddr)
	return nil
}

func (bn *burstNode) run(name, proxyAddr string) {
	raw, err := net.Dial("tcp", proxyAddr)
	if err != nil {
		return
	}
	c := protocol.NewConn(raw)
	bn.connMu.Lock()
	bn.conn = c
	bn.connMu.Unlock()
	defer c.Close()
	c.Send(&protocol.Message{Type: protocol.TJoinLambda, Key: name})
	c.Send(&protocol.Message{Type: protocol.TPong, Key: name})
	type heldGet struct {
		seq uint64
		key string
	}
	var held []heldGet
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch m.Type {
		case protocol.TPing:
			bn.pings.Add(1)
			c.Send(&protocol.Message{Type: protocol.TPong, Seq: m.Seq})
		case protocol.TSet:
			bn.mu.Lock()
			bn.store[m.Key] = append([]byte(nil), m.Payload...)
			bn.mu.Unlock()
			m.Recycle()
			c.Send(&protocol.Message{Type: protocol.TAck, Seq: m.Seq})
		case protocol.TDel:
			bn.mu.Lock()
			delete(bn.store, m.Key)
			bn.mu.Unlock()
			c.Send(&protocol.Message{Type: protocol.TAck, Seq: m.Seq})
		case protocol.TGet:
			if bn.withhold.Load() {
				bn.heldCh <- m.Seq
				continue
			}
			held = append(held, heldGet{seq: m.Seq, key: m.Key})
			if len(held) >= bn.holdGets {
				// The whole burst arrived on one connection before any
				// answer was sent — a sequential client would deadlock
				// right here. Answer everything.
				for _, h := range held {
					bn.mu.Lock()
					b, ok := bn.store[h.key]
					bn.mu.Unlock()
					if ok {
						c.Send(&protocol.Message{Type: protocol.TData, Seq: h.seq, Key: h.key, Payload: b})
					} else {
						c.Send(&protocol.Message{Type: protocol.TMiss, Seq: h.seq, Key: h.key})
					}
				}
				held = held[:0]
			}
		}
	}
}

// newBurstNode returns a burstNode answering GETs in bursts of holdGets.
func newBurstNode(holdGets int) *burstNode {
	return &burstNode{holdGets: holdGets, store: make(map[string][]byte), heldCh: make(chan uint64, 64)}
}

// burstClient is the batch tests' client: RS(1+0), so every object is
// exactly one chunk on the one node and chunk traffic counts are
// deterministic.
var burstClient = client.Config{DataShards: 1, ParityShards: 0, Seed: 9}

// TestMGetSingleWindowedBurst is the batch-API acceptance property: an
// MGet of 16 keys reaches the owning proxy's node pool as ONE windowed
// burst. The node withholds every DATA response until all 16 chunk GETs
// have arrived — a client that issued one key per round trip would
// deadlock — and the whole busy period costs at most one preflight
// PING.
func TestMGetSingleWindowedBurst(t *testing.T) {
	const n = 16
	bn := newBurstNode(n)
	_, c := warmStack(t, bn, 1, Config{}, burstClient)
	ctx := context.Background()

	keys := make([]string, n)
	pairs := make([]client.KV, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("burst/%d", i)
		pairs[i] = client.KV{Key: keys[i], Value: []byte(fmt.Sprintf("payload-%02d", i))}
	}
	for _, r := range c.MPut(ctx, pairs...) {
		if r.Err != nil {
			t.Fatalf("MPut %s: %v", r.Key, r.Err)
		}
	}

	done := make(chan []client.GetResult, 1)
	go func() { done <- c.MGet(ctx, keys...) }()
	var res []client.GetResult
	select {
	case res = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("MGet hung: the 16-key burst never arrived at the node in one window")
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("MGet %s: %v", r.Key, r.Err)
		}
		if !bytes.Equal(r.Object.Bytes(), pairs[i].Value) {
			t.Fatalf("MGet %s corrupted", r.Key)
		}
		r.Object.Release()
	}
	if got := bn.pings.Load(); got > 1 {
		t.Fatalf("MGet busy period used %d preflight PINGs, want <= 1", got)
	}
}

// TestClientCancelReachesDispatcher drives a cancellation end to end,
// for both shapes of the session's one read op (a whole-object GET and
// a ranged GET): the client's context is cancelled while the node
// withholds the chunk response, so the CANCEL frame must travel to the
// session, be counted, withdraw the chunk request from the node
// dispatcher's window, and leave the stack healthy for the next request
// (the withheld response arriving late is dropped as stale).
func TestClientCancelReachesDispatcher(t *testing.T) {
	reads := map[string]func(ctx context.Context, c *client.Client) error{
		"GetObject": func(ctx context.Context, c *client.Client) error {
			_, err := c.GetObject(ctx, "precious")
			return err
		},
		"GetRange": func(ctx context.Context, c *client.Client) error {
			_, err := c.GetRange(ctx, "precious", 2, 5)
			return err
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			bn := newBurstNode(1)
			p, c := warmStack(t, bn, 1, Config{}, burstClient)
			ctx := context.Background()

			if err := c.PutCtx(ctx, "precious", []byte("cancel-me")); err != nil {
				t.Fatal(err)
			}

			bn.withhold.Store(true)
			cctx, cancel := context.WithCancel(ctx)
			errCh := make(chan error, 1)
			go func() { errCh <- read(cctx, c) }()
			var heldSeq uint64
			select {
			case heldSeq = <-bn.heldCh:
			case <-time.After(10 * time.Second):
				t.Fatal("node never received the chunk GET")
			}
			cancel()
			if err := <-errCh; !errors.Is(err, context.Canceled) {
				t.Fatalf("%s = %v, want context.Canceled", name, err)
			}

			// The CANCEL must reach the session and free the dispatcher slot.
			deadline := time.Now().Add(5 * time.Second)
			for p.Stats().Cancels.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := p.Stats().Cancels.Load(); got != 1 {
				t.Fatalf("proxy counted %d cancels, want 1", got)
			}

			// The withheld response arrives late: the dispatcher must drop it
			// as stale, and a fresh GET must still round-trip.
			bn.withhold.Store(false)
			bn.connMu.Lock()
			conn := bn.conn
			bn.connMu.Unlock()
			conn.Send(&protocol.Message{Type: protocol.TData, Seq: heldSeq, Key: ChunkKey("precious", 0), Payload: []byte("cancel-me")})

			got, err := c.GetCtx(ctx, "precious")
			if err != nil || string(got) != "cancel-me" {
				t.Fatalf("GET after cancel: %q, %v", got, err)
			}
			if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
				t.Fatalf("%d chunk failures", fails)
			}
		})
	}
}

// TestCancelFreesWindowSlot exercises the dispatcher-level guarantee
// directly: with the in-flight window full and one request queued
// behind it, cancelling an in-flight request must deliver its nil
// outcome immediately and hand the freed slot to the queued request.
func TestCancelFreesWindowSlot(t *testing.T) {
	var received atomic.Int64
	full := make(chan struct{})
	overflow := make(chan struct{})
	var invokes atomic.Int64
	inv := invokerFunc(func(name string, payload []byte) error {
		if invokes.Add(1) > 1 {
			return nil
		}
		addr := proxyAddrFromPayload(t, payload)
		go func() {
			c := joinProxy(t, addr, "test-node", false)
			defer c.Close()
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
					switch received.Add(1) {
					case maxInflight:
						close(full)
					case maxInflight + 1:
						close(overflow)
					}
					m.Recycle() // swallow: the window stays full
				}
			}
		}()
		return nil
	})
	p, err := New(Config{
		Invoker:        inv,
		Nodes:          []string{"test-node"},
		NodeMemoryMB:   128,
		PingTimeout:    time.Second,
		InvokeTimeout:  5 * time.Second,
		RequestTimeout: 30 * time.Second, // no expiry interference
		Retries:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	ch := make(chan nodeReply, maxInflight+1)
	seqs := make([]uint64, 0, maxInflight)
	for i := 0; i < maxInflight; i++ {
		seq := p.nextSeq()
		seqs = append(seqs, seq)
		if !p.nodes[0].submit(protocol.TSet, seq, fmt.Sprintf("obj#%d", i), []byte("chunk"), ch) {
			t.Fatal("submit refused")
		}
	}
	select {
	case <-full:
	case <-time.After(10 * time.Second):
		t.Fatal("window never filled")
	}
	// One more: it must queue, not send (window is at maxInflight).
	if !p.nodes[0].submit(protocol.TSet, p.nextSeq(), "obj#overflow", []byte("chunk"), ch) {
		t.Fatal("submit refused")
	}
	select {
	case <-overflow:
		t.Fatal("request sent past a full window")
	case <-time.After(100 * time.Millisecond):
	}

	// Cancel one in-flight request: its nil outcome arrives and the
	// queued request takes the freed slot.
	p.nodes[0].cancel(seqs[0])
	r := awaitReply(t, ch)
	if r.Msg != nil || r.Seq != seqs[0] {
		t.Fatalf("cancelled request returned %+v (seq %d), want nil for %d", r.Msg, r.Seq, seqs[0])
	}
	select {
	case <-overflow:
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never claimed the cancelled slot")
	}
	if fails := p.Stats().ChunkFailures.Load(); fails != 0 {
		t.Fatalf("%d chunk failures", fails)
	}
}
