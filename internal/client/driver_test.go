package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/cluster"
	"infinicache/internal/protocol"
)

// The tests in this file pin the op driver (do): every public operation
// must react to the same scripted proxy reply with the same retry,
// redirect, wait and verdict, because they all ride the one driver.

// script names the reply a fake proxy gives to the FIRST attempt of
// each key; later attempts get the op's final answer (a MISS for reads,
// an ACK for writes) unless the script says otherwise.
type script int

const (
	sTransient  script = iota // node transient, then final
	sBusyWrite                // busy-write, then final
	sRedirect                 // WRONG_OWNER redirect, then final
	sFallback                 // fallback redirect, authoritative MISS, then final
	sConnClosed               // the connection dies under the first request
	sCancelled                // first attempt withheld until the caller's ctx is cancelled
	sExhaust                  // node transient on every attempt
)

var scriptNames = map[script]string{
	sTransient: "transient", sBusyWrite: "busy-write", sRedirect: "redirect", sFallback: "fallback+miss",
	sConnClosed: "conn-closed", sCancelled: "ctx-cancelled", sExhaust: "transient-forever",
}

// fakeCluster is two fake proxies answering by per-key attempt number,
// wherever the attempt lands: the driver's routing is free to move keys
// between them, the script follows the key.
type fakeCluster struct {
	script script
	addrs  [2]string

	mu       sync.Mutex
	attempts map[string]int    // key → attempts seen
	setGen   map[string]int64  // key → generation of the SET attempt being counted
	setN     map[string]int    // key → attempt number of that generation
	seqKey   map[uint64]string // withheld seq → key, for CANCEL attribution
	cancels  map[string]int    // key → CANCEL frames received
	held     map[string]chan struct{}
	redirect int // attempts answered with a redirect
	notAuth  int // fallback chases that arrived without the authoritative flag
	killed   bool
}

func newFakeCluster(t *testing.T, s script) *fakeCluster {
	fc := &fakeCluster{
		script:   s,
		attempts: make(map[string]int), setGen: make(map[string]int64), setN: make(map[string]int),
		seqKey: make(map[uint64]string), cancels: make(map[string]int), held: make(map[string]chan struct{}),
	}
	for i := range fc.addrs {
		fc.addrs[i] = newFakeProxy(t, fc.handle).addr
	}
	return fc
}

// heldCh is closed once key's withheld attempt has reached a proxy.
func (fc *fakeCluster) heldCh(key string) chan struct{} {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.heldLocked(key)
}

func (fc *fakeCluster) heldLocked(key string) chan struct{} {
	if fc.held[key] == nil {
		fc.held[key] = make(chan struct{})
	}
	return fc.held[key]
}

// attemptOf numbers the attempt a request frame belongs to. Every GET
// and DEL frame is an attempt; the d+p SETs of one PUT generation are
// one.
func (fc *fakeCluster) attemptOf(m *protocol.Message) int {
	if m.Type == protocol.TSet {
		if gen := m.Arg(5); fc.setGen[m.Key] != gen {
			fc.setGen[m.Key] = gen
			fc.setN[m.Key] = fc.attempts[m.Key]
			fc.attempts[m.Key]++
		}
		return fc.setN[m.Key]
	}
	fc.attempts[m.Key]++
	return fc.attempts[m.Key] - 1
}

func (fc *fakeCluster) handle(c *protocol.Conn, m *protocol.Message) {
	defer m.Recycle()
	reply := &protocol.Message{Seq: m.Seq, Key: m.Key}
	transient := func(reason int64) {
		reply.Type, reply.Args = protocol.TErr, []int64{protocol.TransientFlag, reason}
	}
	switch m.Type {
	case protocol.TRing:
		// Epoch v1: both proxies are members.
		e := cluster.NewEpoch(1, []cluster.Member{{Addr: fc.addrs[0], PoolSize: 8}, {Addr: fc.addrs[1], PoolSize: 8}})
		reply.Type, reply.Args, reply.Payload = protocol.TRing, []int64{1}, e.Encode()
		c.Send(reply)
		return
	case protocol.TCancel:
		fc.mu.Lock()
		fc.cancels[fc.seqKey[m.Seq]]++
		fc.mu.Unlock()
		return
	case protocol.TGet, protocol.TSet, protocol.TDel:
	default:
		return
	}
	fc.mu.Lock()
	n := fc.attemptOf(m)
	// The final answer: reads miss, writes are acknowledged.
	reply.Type = protocol.TAck
	if m.Type == protocol.TGet {
		reply.Type = protocol.TMiss
	}
	send := true
	if n == 0 && (fc.script == sRedirect || fc.script == sFallback) && (m.Type != protocol.TSet || m.Arg(0) == 0) {
		fc.redirect++ // once per attempt: every SET of a refused generation is redirected
	}
	switch {
	case fc.script == sExhaust, fc.script == sTransient && n == 0:
		transient(protocol.TransientNodeFailure)
	case fc.script == sBusyWrite && n == 0:
		transient(protocol.TransientBusyWrite)
	case fc.script == sRedirect && n == 0:
		reply.Type, reply.Addr, reply.Args = protocol.TWrongOwner, fc.addrs[1], []int64{1}
	case fc.script == sFallback && n == 0:
		reply.Type, reply.Addr, reply.Args = protocol.TWrongOwner, fc.addrs[1], []int64{1, 1}
	case fc.script == sFallback && n == 1:
		// The chase must ask the previous owner authoritatively.
		if m.Type == protocol.TGet && m.Arg(0) != 1 {
			fc.notAuth++
		}
		reply.Type = protocol.TMiss
	case fc.script == sConnClosed && !fc.killed:
		fc.killed = true
		send = false
		c.Close()
	case fc.script == sCancelled && n == 0:
		send = false
		fc.seqKey[m.Seq] = m.Key
		select {
		case <-fc.heldLocked(m.Key):
		default:
			close(fc.heldLocked(m.Key))
		}
	}
	fc.mu.Unlock()
	if send {
		c.Send(reply)
	}
}

// driverOp runs one public operation over keys and reports each key's
// final error.
type driverOp struct {
	name  string
	read  bool
	batch bool
	run   func(ctx context.Context, c *Client, keys []string) []error
}

var driverOps = []driverOp{
	{name: "GetObject", read: true, run: func(ctx context.Context, c *Client, keys []string) []error {
		_, err := c.GetObject(ctx, keys[0])
		return []error{err}
	}},
	{name: "GetRange", read: true, run: func(ctx context.Context, c *Client, keys []string) []error {
		_, err := c.GetRange(ctx, keys[0], 3, 10)
		return []error{err}
	}},
	{name: "MGet", read: true, batch: true, run: func(ctx context.Context, c *Client, keys []string) []error {
		var errs []error
		for _, r := range c.MGet(ctx, keys...) {
			errs = append(errs, r.Err)
		}
		return errs
	}},
	{name: "PutCtx", run: func(ctx context.Context, c *Client, keys []string) []error {
		return []error{c.PutCtx(ctx, keys[0], make([]byte, 1000))}
	}},
	{name: "MPut", batch: true, run: func(ctx context.Context, c *Client, keys []string) []error {
		pairs := make([]KV, len(keys))
		for i, k := range keys {
			pairs[i] = KV{Key: k, Value: make([]byte, 1000)}
		}
		var errs []error
		for _, r := range c.MPut(ctx, pairs...) {
			errs = append(errs, r.Err)
		}
		return errs
	}},
	{name: "DelCtx", run: func(ctx context.Context, c *Client, keys []string) []error {
		return []error{c.DelCtx(ctx, keys[0])}
	}},
}

// TestDriverConformance is the op-driver table: {GetObject, GetRange,
// MGet, PutCtx, MPut, DelCtx} × the scripted first replies, each cell
// run from several goroutines sharing one client. Per key it asserts
// the number of attempts the proxies saw, the final error, that a
// CANCEL reached the proxy when the caller left, and — per cell — that
// Stats.Redirects and ColdMisses moved exactly once per logical event.
func TestDriverConformance(t *testing.T) {
	const goroutines = 4
	for _, op := range driverOps {
		for s := sTransient; s <= sExhaust; s++ {
			t.Run(op.name+"/"+scriptNames[s], func(t *testing.T) {
				fc := newFakeCluster(t, s)
				c, err := New(Config{
					Proxies:        []ProxyInfo{{Addr: fc.addrs[0], PoolSize: 8}, {Addr: fc.addrs[1], PoolSize: 8}},
					DataShards:     4,
					ParityShards:   2,
					RequestTimeout: 10 * time.Second,
					Seed:           1,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })

				var keyCount atomic.Int64
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						keys := []string{fmt.Sprintf("k%d", g)}
						if op.batch {
							keys = append(keys, fmt.Sprintf("k%d-b", g))
						}
						keyCount.Add(int64(len(keys)))
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						if s == sCancelled {
							go func() {
								for _, k := range keys {
									<-fc.heldCh(k)
								}
								cancel()
							}()
						}
						errs := op.run(ctx, c, keys)
						for i, k := range keys {
							checkDriverKey(t, fc, op, k, errs[i])
						}
					}(g)
				}
				wg.Wait()

				keys := keyCount.Load()
				fc.mu.Lock()
				redirects, notAuth := int64(fc.redirect), fc.notAuth
				fc.mu.Unlock()
				if s == sRedirect || s == sFallback {
					if redirects != keys {
						t.Errorf("proxies sent %d redirects for %d keys", redirects, keys)
					}
				}
				if got := c.Stats().Redirects.Load(); got != redirects {
					t.Errorf("Stats.Redirects = %d, want %d (one per redirect followed)", got, redirects)
				}
				wantMisses := int64(0)
				if op.read && s != sCancelled && s != sExhaust {
					wantMisses = keys
				}
				if got := c.Stats().ColdMisses.Load(); got != wantMisses {
					t.Errorf("Stats.ColdMisses = %d, want %d (one per key whose final answer is a miss)", got, wantMisses)
				}
				if notAuth != 0 {
					t.Errorf("%d fallback chases arrived without the authoritative flag", notAuth)
				}
			})
		}
	}
}

// checkDriverKey asserts one key's outcome in a conformance cell.
func checkDriverKey(t *testing.T, fc *fakeCluster, op driverOp, key string, err error) {
	fc.mu.Lock()
	attempts := fc.attempts[key]
	fc.mu.Unlock()

	wantAttempts := map[script]int{
		sTransient: 2, sBusyWrite: 2, sRedirect: 2, sFallback: 3, sCancelled: 1, sExhaust: maxAttempts,
	}[fc.script]
	switch {
	case fc.script == sConnClosed:
		// Only the request under which the connection died (and whatever
		// shared that connection at the time) pays a second attempt.
		if attempts < 1 || attempts > 2 {
			t.Errorf("%s %s: proxies saw %d attempts, want 1 or 2", op.name, key, attempts)
		}
	case attempts != wantAttempts:
		t.Errorf("%s %s: proxies saw %d attempts, want %d", op.name, key, attempts, wantAttempts)
	}

	switch {
	case fc.script == sCancelled:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s %s = %v, want context.Canceled", op.name, key, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			fc.mu.Lock()
			n := fc.cancels[key]
			fc.mu.Unlock()
			if n > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("%s %s: no CANCEL frame reached the proxy after the caller left", op.name, key)
				break
			}
			time.Sleep(time.Millisecond)
		}
	case fc.script == sExhaust:
		if !errors.Is(err, ErrRejected) {
			t.Errorf("%s %s = %v, want ErrRejected after %d attempts", op.name, key, err, maxAttempts)
		}
	case op.read:
		if !errors.Is(err, ErrMiss) {
			t.Errorf("%s %s = %v, want ErrMiss", op.name, key, err)
		}
	case err != nil:
		t.Errorf("%s %s = %v, want success", op.name, key, err)
	}
}

// TestMGetBusyWriteBacksOff is the first MGet regression: a key that
// lands in a busy-write window during the burst must get GetObject's
// treatment — back off, retry — and surface the retry's answer, never
// the unexported busy-write sentinel.
func TestMGetBusyWriteBacksOff(t *testing.T) {
	var gets atomic.Int32
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		if m.Type == protocol.TGet {
			reply := &protocol.Message{Type: protocol.TMiss, Seq: m.Seq, Key: m.Key}
			if gets.Add(1) == 1 {
				reply.Type, reply.Args = protocol.TErr, []int64{protocol.TransientFlag, protocol.TransientBusyWrite}
			}
			c.Send(reply)
		}
		m.Recycle()
	})
	c := testClient(t, fp.addr)
	res := c.MGet(context.Background(), "mid-overwrite")
	if err := res[0].Err; !errors.Is(err, ErrMiss) || errors.Is(err, errBusyWrite) {
		t.Fatalf("MGet = %v, want ErrMiss after the busy-write backoff", err)
	}
	if n := gets.Load(); n != 2 {
		t.Fatalf("proxy saw %d GETs, want 2 (burst, then one retry)", n)
	}
}

// TestMGetRetryFollowsStreamObject is the second MGet regression: a
// transient retry answered with the streamed-object redirect must be
// followed through the ranged plane, not leaked to the caller.
func TestMGetRetryFollowsStreamObject(t *testing.T) {
	var whole, ranged atomic.Int32
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		if m.Type == protocol.TGet {
			reply := &protocol.Message{Type: protocol.TErr, Seq: m.Seq, Key: m.Key}
			switch {
			case m.Arg(protocol.RangeArgFlag) == 1:
				ranged.Add(1)
				reply.Type = protocol.TMiss
			case whole.Add(1) == 1:
				reply.Args = []int64{protocol.TransientFlag, protocol.TransientNodeFailure}
			default:
				reply.Args = []int64{protocol.StreamObjectFlag, 4096}
			}
			c.Send(reply)
		}
		m.Recycle()
	})
	c := testClient(t, fp.addr)
	res := c.MGet(context.Background(), "streamed")
	var eso errStreamObject
	if err := res[0].Err; !errors.Is(err, ErrMiss) || errors.As(err, &eso) {
		t.Fatalf("MGet = %v, want the ranged follow-up's ErrMiss", err)
	}
	if n := ranged.Load(); n != 1 {
		t.Fatalf("proxy saw %d ranged GETs, want 1 follow-up over the streamed object", n)
	}
}
