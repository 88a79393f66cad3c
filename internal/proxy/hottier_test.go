package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/clockcache"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/lambdanode"
	"infinicache/internal/protocol"
)

// The tests in this file drive the proxy-resident hot-object tier
// through a real proxy against an always-warm lambdanode.WarmPool: a
// tier hit must produce zero node chunk traffic, a superseding PUT must
// never let a concurrent GET observe the stale payload (run under
// -race), and eviction pressure must pin HotBytes at or under the cap.

// warmStack wires a proxy over inv with nodes Lambda functions and one
// client of it. cfg and ccfg carry what a test varies; warmStack sets
// the invoker, the node names and the client's view of the proxy, and
// fills each setting the caller left zero with the value most stacks
// here run with: 256 MB nodes, a 1 s ping, 5 s invoke and 3 s request
// timeout, 2 retries, and a 5 s client request timeout. The shapes in
// use: the hot-tier and write-op tests run 4 nodes and RS(2+1)
// (multi-chunk objects, so sparse capture and the first-d fan-in are
// exercised), the streaming tests 12 nodes of 512 MB, 3 retries and
// RS(10+2) with a 20 s client timeout, the batch tests 1 node and
// RS(1+0).
func warmStack(t testing.TB, inv lambdaemu.Invoker, nodes int, cfg Config, ccfg client.Config) (*Proxy, *client.Client) {
	t.Helper()
	cfg.Invoker = inv
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, fmt.Sprintf("node%d", i))
	}
	orDefault(&cfg.NodeMemoryMB, 256)
	orDefault(&cfg.Retries, 2)
	orDefault(&cfg.PingTimeout, time.Second)
	orDefault(&cfg.InvokeTimeout, 5*time.Second)
	orDefault(&cfg.RequestTimeout, 3*time.Second)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	ccfg.Proxies = []client.ProxyInfo{{Addr: p.Addr(), PoolSize: nodes}}
	orDefault(&ccfg.RequestTimeout, 5*time.Second)
	c, err := client.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return p, c
}

// orDefault sets *v to def when it is zero.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// hotClient is the hot-tier and write-op tests' client: RS(2+1).
var hotClient = client.Config{DataShards: 2, ParityShards: 1, Seed: 11}

// TestWarmPoolExitsWithProxy: closing the proxy ends every node the
// pool started, so Wait returns.
func TestWarmPoolExitsWithProxy(t *testing.T) {
	pool := &lambdanode.WarmPool{}
	p, c := warmStack(t, pool, 4, Config{}, hotClient)
	if err := c.PutCtx(context.Background(), "k", []byte("started")); err != nil {
		t.Fatal(err)
	}
	p.Close()
	done := make(chan struct{})
	go func() {
		pool.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WarmPool.Wait did not return after the proxy closed")
	}
}

// TestHotTierServesWithoutNodeTraffic is the tentpole property: once an
// object is tier-resident, a GET produces ZERO chunk traffic to the
// node pool and is answered from proxy memory.
func TestHotTierServesWithoutNodeTraffic(t *testing.T) {
	pool := &lambdanode.WarmPool{}
	p, c := warmStack(t, pool, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()
	val := bytes.Repeat([]byte("hot-object-payload/"), 40)

	// Write-through admission is frequency-gated: the first PUT only
	// registers the key in the ghost filter, the second admits.
	if err := c.PutCtx(ctx, "wt", val); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCtx(ctx, "wt", val); err != nil {
		t.Fatal(err)
	}
	nodeGets := pool.Gets.Load()
	got, err := c.GetCtx(ctx, "wt")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("hot GET: %v (len %d, want %d)", err, len(got), len(val))
	}
	if moved := pool.Gets.Load() - nodeGets; moved != 0 {
		t.Fatalf("tier-resident GET cost %d node chunk GETs, want 0", moved)
	}
	if hits := p.Stats().HotHits.Load(); hits != 1 {
		t.Fatalf("HotHits = %d, want 1", hits)
	}

	// Read-through admission: one PUT (ghost-registers), a first GET off
	// the nodes (captures), then a second GET must be a tier hit.
	if err := c.PutCtx(ctx, "rt", val); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(ctx, "rt"); err != nil {
		t.Fatal(err)
	}
	nodeGets = pool.Gets.Load()
	got, err = c.GetCtx(ctx, "rt")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("read-admitted GET: %v", err)
	}
	if moved := pool.Gets.Load() - nodeGets; moved != 0 {
		t.Fatalf("read-admitted GET cost %d node chunk GETs, want 0", moved)
	}
	if p.Stats().HotBytes.Load() <= 0 {
		t.Fatal("HotBytes gauge not tracking resident objects")
	}
}

// TestHotTierInvalidationOrdering is the coherence property: a PUT
// generation superseding a tier-resident object must never let a later
// GET observe the superseded payload. The sequential part pins the
// exact handoff; the concurrent part (run under -race) hammers
// overwrite-vs-read interleavings: any GET that starts after PutCtx(vN)
// returned must observe version >= N.
func TestHotTierInvalidationOrdering(t *testing.T) {
	p, c := warmStack(t, &lambdanode.WarmPool{}, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()

	mkval := func(version byte) []byte {
		v := bytes.Repeat([]byte{version}, 512)
		return v
	}
	if err := c.PutCtx(ctx, "k", mkval(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCtx(ctx, "k", mkval(1)); err != nil { // admit
		t.Fatal(err)
	}
	if got, err := c.GetCtx(ctx, "k"); err != nil || got[0] != 1 {
		t.Fatalf("hot GET v1: %v %v", got[:1], err)
	}
	if p.Stats().HotHits.Load() == 0 {
		t.Fatal("v1 was not tier-resident; the test is not exercising invalidation")
	}
	if err := c.PutCtx(ctx, "k", mkval(2)); err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetCtx(ctx, "k"); err != nil || got[0] != 2 {
		t.Fatalf("GET after superseding PUT returned version %d, want 2 (err %v)", got[0], err)
	}

	// Concurrent: a writer bumps the version; readers must never travel
	// back in time relative to the writer's completed PUTs.
	c2, err := client.New(client.Config{
		Proxies:        []client.ProxyInfo{{Addr: p.Addr(), PoolSize: 4}},
		DataShards:     2,
		ParityShards:   1,
		RequestTimeout: 5 * time.Second,
		Seed:           12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	var committed atomic.Int64 // highest version whose PutCtx returned
	committed.Store(2)
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(done)
		for v := byte(3); v <= 40; v++ {
			if err := c2.PutCtx(ctx, "k", mkval(v)); err != nil {
				writerErr <- err
				return
			}
			committed.Store(int64(v))
		}
	}()
	for {
		select {
		case err := <-writerErr:
			t.Fatalf("writer: %v", err)
		case <-done:
			if got, err := c.GetCtx(ctx, "k"); err != nil || got[0] != 40 {
				t.Fatalf("final GET: version %d, err %v; want 40", got[0], err)
			}
			return
		default:
		}
		floor := committed.Load()
		got, err := c.GetCtx(ctx, "k")
		if errors.Is(err, client.ErrRejected) {
			// The reader phase-locked with the writer and drew "write in
			// progress" transients for all of its attempts (possible at
			// GOMAXPROCS=1 when one key is overwritten back to back) — a
			// liveness artifact, not a coherence failure. Staleness is
			// what this test pins.
			continue
		}
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if int64(got[0]) < floor {
			t.Fatalf("stale read: observed version %d after version %d was committed", got[0], floor)
		}
	}
}

// TestHotTierOverwriteStaysResident: a resident key keeps its residency
// across its own writes. An overwrite is written through, so the next
// GET is a tier hit on the new version; a DEL makes the key a miss, and
// its next write is admitted again.
func TestHotTierOverwriteStaysResident(t *testing.T) {
	pool := &lambdanode.WarmPool{}
	p, c := warmStack(t, pool, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()
	mkval := func(version byte) []byte { return bytes.Repeat([]byte{version}, 1536) }

	// tierHit requires the next GET to return want from the tier alone.
	tierHit := func(when string, want []byte) {
		t.Helper()
		gets, hits := pool.Gets.Load(), p.Stats().HotHits.Load()
		got, err := c.GetCtx(ctx, "ow")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: GET = %v (%d bytes), want version %d", when, err, len(got), want[0])
		}
		if moved := pool.Gets.Load() - gets; moved != 0 {
			t.Fatalf("%s: GET cost %d node chunk GETs, want 0", when, moved)
		}
		if p.Stats().HotHits.Load() != hits+1 {
			t.Fatalf("%s: GET was not a tier hit", when)
		}
	}
	put := func(v []byte) {
		t.Helper()
		if err := c.PutCtx(ctx, "ow", v); err != nil {
			t.Fatal(err)
		}
	}

	put(mkval(1))
	put(mkval(1)) // the second touch admits
	tierHit("after admission", mkval(1))
	put(mkval(2))
	tierHit("after an overwrite", mkval(2))
	if err := c.DelCtx(ctx, "ow"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(ctx, "ow"); !errors.Is(err, client.ErrMiss) {
		t.Fatalf("GET after DEL = %v, want ErrMiss", err)
	}
	put(mkval(3))
	tierHit("after a write of the deleted key", mkval(3))
}

// TestHotTierEvictionPressure pins the memory bound: with a tier far
// smaller than the working set, HotBytes never exceeds the cap, the
// CLOCK hand evicts, and every object still reads back correctly
// (evicted entries just fall through to the node path).
func TestHotTierEvictionPressure(t *testing.T) {
	const tierCap = 32 << 10
	p, c := warmStack(t, &lambdanode.WarmPool{}, 4, Config{HotTierBytes: tierCap, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()

	const objs = 24
	const objSize = 4 << 10
	vals := make([][]byte, objs)
	for i := range vals {
		vals[i] = bytes.Repeat([]byte{byte(i + 1)}, objSize)
		key := fmt.Sprintf("evict/%d", i)
		// Two PUTs: the second write-through-admits.
		if err := c.PutCtx(ctx, key, vals[i]); err != nil {
			t.Fatal(err)
		}
		if err := c.PutCtx(ctx, key, vals[i]); err != nil {
			t.Fatal(err)
		}
		if hb := p.Stats().HotBytes.Load(); hb > tierCap {
			t.Fatalf("HotBytes %d exceeds cap %d after insert %d", hb, tierCap, i)
		}
	}
	if ev := p.Stats().HotEvictions.Load(); ev == 0 {
		t.Fatal("no tier evictions despite working set >> cap")
	}
	for i := range vals {
		got, err := c.GetCtx(ctx, fmt.Sprintf("evict/%d", i))
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("object %d corrupted/lost under eviction pressure: %v", i, err)
		}
		if hb := p.Stats().HotBytes.Load(); hb > tierCap {
			t.Fatalf("HotBytes %d exceeds cap %d during reads", hb, tierCap)
		}
	}
}

// TestHotTierHitKeepsPoolRecency: a tier hit never reaches the nodes,
// but it still sets the object's pool CLOCK bit, so a tier-resident
// object read between writes keeps its mapping entry through pool
// eviction while an unread object of the same age is evicted.
func TestHotTierHitKeepsPoolRecency(t *testing.T) {
	pool := &lambdanode.WarmPool{}
	// 4 nodes of 1 MiB: ten 384 KiB objects (256 KiB under RS(2+1)) fill
	// the pool.
	p, c := warmStack(t, pool, 4, Config{NodeMemoryMB: 1, HotTierBytes: 1 << 20, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 256<<10) }
	put := func(key string, i int) {
		t.Helper()
		if err := c.PutCtx(ctx, key, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// mapped reads the table without touching the key's CLOCK bit.
	mapped := func(key string) bool {
		p.table.mu.Lock()
		defer p.table.mu.Unlock()
		return p.table.objects[key] != nil
	}

	// The hand's first sweep clears every bit and takes the oldest
	// object, "first"; after that a bit is set only by a later access.
	put("first", 0)
	put("hot", 1)
	put("hot", 1) // the second write admits it to the tier
	put("cold", 2)
	for i := 0; mapped("cold"); i++ {
		if i == 40 {
			t.Fatal("40 more objects than the pool holds, and the unread object is still mapped")
		}
		put(fmt.Sprintf("fill/%d", i), 3+i)
		gets, hits := pool.Gets.Load(), p.Stats().HotHits.Load()
		got, err := c.GetCtx(ctx, "hot")
		if err != nil || !bytes.Equal(got, val(1)) {
			t.Fatalf("after %d writes: GET hot = %v (%d bytes)", i+1, err, len(got))
		}
		if pool.Gets.Load() != gets || p.Stats().HotHits.Load() != hits+1 {
			t.Fatalf("after %d writes: GET hot was not a tier hit", i+1)
		}
		if !mapped("hot") {
			t.Fatalf("after %d writes: pool eviction took the object read between writes", i+1)
		}
	}
	if p.Stats().Evictions.Load() == 0 {
		t.Fatal("the unread object left the table without a pool eviction")
	}
}

// TestHotTierDelInvalidates: a DEL must synchronously drop the
// tier-resident copy — the next GET reports a miss instead of serving
// the deleted object from proxy memory.
func TestHotTierDelInvalidates(t *testing.T) {
	_, c := warmStack(t, &lambdanode.WarmPool{}, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()
	val := bytes.Repeat([]byte("z"), 2048)
	if err := c.PutCtx(ctx, "gone", val); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCtx(ctx, "gone", val); err != nil { // admit
		t.Fatal(err)
	}
	if _, err := c.GetCtx(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := c.DelCtx(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(ctx, "gone"); !errors.Is(err, client.ErrMiss) {
		t.Fatalf("GET after DEL = %v, want ErrMiss", err)
	}
}

// TestHotTierSizeThreshold: objects above HotMaxObjectBytes are never
// admitted — repeated PUTs and GETs keep paying node traffic.
func TestHotTierSizeThreshold(t *testing.T) {
	pool := &lambdanode.WarmPool{}
	p, c := warmStack(t, pool, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: 1024}, hotClient)
	ctx := context.Background()
	big := bytes.Repeat([]byte("B"), 8192)
	for i := 0; i < 3; i++ {
		if err := c.PutCtx(ctx, "big", big); err != nil {
			t.Fatal(err)
		}
	}
	before := pool.Gets.Load()
	if _, err := c.GetCtx(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	if moved := pool.Gets.Load() - before; moved == 0 {
		t.Fatal("over-threshold object was served from the tier")
	}
	if hits := p.Stats().HotHits.Load(); hits != 0 {
		t.Fatalf("HotHits = %d for an over-threshold object, want 0", hits)
	}
}

// TestCancelledPutLeavesCleanMiss pins the failed-generation cleanup:
// a PUT cancelled before any chunk commits must leave the key reading
// as a clean MISS (the §5.2 RESET path) — not as an eternal
// "write in progress" transient wedging every future GET.
func TestCancelledPutLeavesCleanMiss(t *testing.T) {
	pool := &lambdanode.WarmPool{}
	_, c := warmStack(t, pool, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()

	pool.HoldSets.Store(true)
	before := pool.Sets.Load()
	cctx, cancel := context.WithCancel(ctx)
	errCh := make(chan error, 1)
	go func() { errCh <- c.PutCtx(cctx, "doomed", bytes.Repeat([]byte("x"), 4096)) }()
	// Wait until all 3 chunk SETs are in flight at the nodes, then
	// abandon the PUT.
	deadline := time.Now().Add(10 * time.Second)
	for pool.Sets.Load()-before < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("PutCtx = %v, want context.Canceled", err)
	}
	pool.HoldSets.Store(false)

	// Cancellation processing is asynchronous; once it settles the key
	// must be a clean miss, never a permanent transient.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, err := c.GetCtx(ctx, "doomed")
		if errors.Is(err, client.ErrMiss) {
			return // clean miss: the caller can RESET
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET after cancelled PUT = %v, want ErrMiss", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newHotTable is a mapping table with the hot tier on, as New builds
// it, reporting to st.
func newHotTable(capBytes, maxObjBytes int64, st *Stats) *mappingTable {
	tb := NewMappingTable(1, 1<<30, clockcache.NewTier(capBytes, maxObjBytes))
	tb.stats = st
	return tb
}

// hotResident reports whether key's entry holds a hot-tier copy.
func (t *mappingTable) hotResident(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.objects[key]
	return o != nil && o.hot != nil
}

// admitOne admits a one-chunk object captured from key's incarnation
// epoch.
func admitOne(tb *mappingTable, key string, epoch uint64, chunk string) {
	c := newHotCapture(key, epoch, 100, 1, 1)
	c.add(0, []byte(chunk))
	tb.AdmitHot(c)
}

// TestHotTierTokenFencing unit-tests the epoch fence: an insert whose
// capture began before a superseding write must be dropped, never
// resurrecting a superseded payload.
func TestHotTierTokenFencing(t *testing.T) {
	var st Stats
	tb := newHotTable(1<<20, 1<<20, &st)

	// First PUT ghost-registers, second admits.
	if _, _, admit := tb.BeginObject("k", 100, 1, 1, 0, 0); admit {
		t.Fatal("first-touch PUT admitted; the ghost gate is not working")
	}
	_, epoch, admit := tb.BeginObject("k", 100, 1, 1, 0, 0)
	if !admit {
		t.Fatal("second-touch PUT not admitted")
	}
	// A superseding write lands between capture and insert.
	tb.BeginObject("k", 100, 1, 1, 0, 0)
	admitOne(tb, "k", epoch, "stale")
	if e, _ := tb.HotGet("k"); e != nil {
		t.Fatal("fenced insert landed; a stale payload could be served")
	}

	// Without interference the insert lands and hits.
	_, epoch, admit = tb.BeginObject("k", 100, 1, 1, 0, 0)
	if !admit {
		t.Fatal("rewrite of a known key not admitted")
	}
	admitOne(tb, "k", epoch, "fresh")
	e, _ := tb.HotGet("k")
	if e == nil || string(e.chunks[0]) != "fresh" {
		t.Fatal("clean insert did not land")
	}
	if st.HotBytes.Load() != 5 {
		t.Fatalf("HotBytes = %d, want 5", st.HotBytes.Load())
	}
}

// TestHotTierRefusesUnbuildableImage: an entry whose reply image cannot
// be built — here a key past the wire's MaxKeyLen — is never admitted,
// so a tier hit always has an image to send and the key's GETs stay on
// the node path.
func TestHotTierRefusesUnbuildableImage(t *testing.T) {
	var st Stats
	tb := newHotTable(1<<20, 1<<20, &st)
	admitTwice := func(key string) uint64 {
		t.Helper()
		tb.BeginObject(key, 100, 1, 1, 0, 0)
		_, epoch, admit := tb.BeginObject(key, 100, 1, 1, 0, 0)
		if !admit {
			t.Fatalf("second-touch PUT of a %d-byte key not admitted", len(key))
		}
		return epoch
	}
	admitOne(tb, "k", admitTwice("k"), "fresh")
	before := st.HotBytes.Load()

	long := strings.Repeat("x", protocol.MaxKeyLen+1)
	admitOne(tb, long, admitTwice(long), "bytes")
	if tb.hotResident(long) {
		t.Fatal("an entry with no reply image was admitted")
	}
	if got := st.HotBytes.Load(); got != before {
		t.Fatalf("HotBytes = %d after the refused insert, want %d", got, before)
	}
	if !tb.hotResident("k") {
		t.Fatal("the refused insert displaced a resident key")
	}
}
