package replay

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/vclock"
	"infinicache/internal/workload"
)

// pumpedManual builds a hand-stepped clock with its pump running:
// virtual deadlines can only fire between steps, never while real work
// is still in flight.
func pumpedManual(t *testing.T) *vclock.Manual {
	t.Helper()
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())
	return clk
}

func getTrace(times []time.Duration, keys []string, size int64) *workload.Trace {
	tr := &workload.Trace{}
	for i, at := range times {
		tr.Records = append(tr.Records, workload.Record{
			Time: at, Op: workload.OpGet, Key: keys[i%len(keys)], Size: size,
		})
	}
	return tr
}

func TestOpenLoopPacingOnVirtualClock(t *testing.T) {
	clk := pumpedManual(t)
	times := make([]time.Duration, 20)
	keys := make([]string, 20)
	for i := range times {
		times[i] = time.Duration(i) * 100 * time.Millisecond
		keys[i] = fmt.Sprintf("k%d", i)
	}
	tr := getTrace(times, keys, 1024)

	res, err := Run(context.Background(), Config{Clock: clk, Sessions: 4}, tr, NewDummy())
	if err != nil {
		t.Fatal(err)
	}
	span := times[len(times)-1]
	if res.Duration < span {
		t.Fatalf("Duration = %v, want >= trace span %v (open loop must pace arrivals)", res.Duration, span)
	}
	if res.Duration > span+time.Second {
		t.Fatalf("Duration = %v, way past trace span %v", res.Duration, span)
	}
	if res.Records != 20 || res.Gets != 20 {
		t.Fatalf("Records/Gets = %d/%d, want 20/20", res.Records, res.Gets)
	}
}

func TestSpeedupCompressesVirtualTime(t *testing.T) {
	clk := pumpedManual(t)
	times := make([]time.Duration, 10)
	keys := make([]string, 10)
	for i := range times {
		times[i] = time.Duration(i) * time.Second
		keys[i] = fmt.Sprintf("k%d", i)
	}
	tr := getTrace(times, keys, 1024)

	res, err := Run(context.Background(), Config{Clock: clk, Speedup: 10}, tr, NewDummy())
	if err != nil {
		t.Fatal(err)
	}
	want := times[len(times)-1] / 10
	if res.Duration < want || res.Duration > want+time.Second {
		t.Fatalf("Duration = %v at speedup 10, want about %v", res.Duration, want)
	}
}

func TestDummyInsertOnMissSemantics(t *testing.T) {
	// 3 keys x 4 accesses, unpaced: first touch per key misses and
	// inserts, every later touch hits.
	var times []time.Duration
	var keys []string
	for rep := 0; rep < 4; rep++ {
		for k := 0; k < 3; k++ {
			times = append(times, time.Duration(len(times))*time.Millisecond)
			keys = append(keys, fmt.Sprintf("obj-%d", k))
		}
	}
	tr := getTrace(times, keys, 4096)

	// One session replays the records in order, so the counts are exact.
	// Several sessions race a key's first touches: a GET that runs before
	// the backfill of an earlier miss lands is a miss too (and inserts
	// again if that backfill has meanwhile finished), so what holds then
	// is what holds under every interleaving.
	for _, sessions := range []int{1, 8} {
		d := NewDummy()
		res, err := Run(context.Background(), Config{Speedup: -1, Sessions: sessions}, tr, d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Gets != 12 || res.Hits+res.Misses != 12 || res.Misses < 3 || (sessions == 1 && res.Misses != 3) {
			t.Fatalf("%d sessions: gets/misses/hits = %d/%d/%d, want 12 GETs, each a hit or a miss, 3 compulsory misses (and no other in order)",
				sessions, res.Gets, res.Misses, res.Hits)
		}
		if res.Inserts < 3 || res.Inserts > res.Misses {
			t.Fatalf("%d sessions: Inserts = %d after %d misses, want one per compulsory miss and never more than the misses",
				sessions, res.Inserts, res.Misses)
		}
		if d.Len() != 3 {
			t.Fatalf("%d sessions: dummy holds %d objects, want 3", sessions, d.Len())
		}
		if want := int64(res.Hits) * 4096; res.BytesServed != want {
			t.Fatalf("%d sessions: BytesServed = %d, want %d (4096 per hit)", sessions, res.BytesServed, want)
		}
		if got, want := res.HitRatio(), float64(res.Hits)/12; got != want {
			t.Fatalf("%d sessions: HitRatio = %v, want %v", sessions, got, want)
		}
	}
}

func TestNoInsertOnMiss(t *testing.T) {
	tr := getTrace(
		[]time.Duration{0, time.Millisecond, 2 * time.Millisecond},
		[]string{"a", "a", "a"}, 100)
	d := NewDummy()
	res, err := Run(context.Background(), Config{Speedup: -1, NoInsertOnMiss: true}, tr, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 3 || res.Inserts != 0 || d.Len() != 0 {
		t.Fatalf("misses/inserts/resident = %d/%d/%d, want 3/0/0", res.Misses, res.Inserts, d.Len())
	}
}

// slowGetBackend wraps Dummy with a fixed virtual-clock service time on
// every Get, so queueing behind a single session is observable.
type slowGetBackend struct {
	*Dummy
	clk     vclock.Clock
	service time.Duration
}

func (s *slowGetBackend) Get(ctx context.Context, key string) (bool, error) {
	s.clk.Sleep(s.service)
	return s.Dummy.Get(ctx, key)
}

func TestOpenLoopLatencyIncludesQueueing(t *testing.T) {
	clk := pumpedManual(t)
	// Two arrivals at t=0, one session, 50ms service time: the second
	// request queues behind the first, so its latency from scheduled
	// arrival is ~2x the service time.
	tr := getTrace([]time.Duration{0, 0}, []string{"a", "b"}, 100)
	b := &slowGetBackend{Dummy: NewDummy(), clk: clk, service: 50 * time.Millisecond}

	res, err := Run(context.Background(), Config{Clock: clk, Sessions: 1, NoInsertOnMiss: true}, tr, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissLatency) != 2 {
		t.Fatalf("got %d miss latencies, want 2", len(res.MissLatency))
	}
	lats := append([]float64(nil), res.MissLatency...)
	sort.Float64s(lats)
	if lats[0] < 0.050 || lats[0] > 0.090 {
		t.Fatalf("first latency = %.3fs, want about the 0.050s service time", lats[0])
	}
	if lats[1] < 0.095 || lats[1] > 0.160 {
		t.Fatalf("second latency = %.3fs, want service + queueing (about 0.100s)", lats[1])
	}
}

// sizeRecorder captures the sizes the engine hands to Put.
type sizeRecorder struct {
	*Dummy
	mu    sync.Mutex
	sizes []int64
}

func (s *sizeRecorder) Put(ctx context.Context, key string, size int64) error {
	s.mu.Lock()
	s.sizes = append(s.sizes, size)
	s.mu.Unlock()
	return s.Dummy.Put(ctx, key, size)
}

func TestSizeCapClampsObjects(t *testing.T) {
	tr := &workload.Trace{Records: []workload.Record{
		{Time: 0, Op: workload.OpPut, Key: "big", Size: 10 << 20},
		{Time: time.Millisecond, Op: workload.OpPut, Key: "small", Size: 4 << 10},
	}}
	rec := &sizeRecorder{Dummy: NewDummy()}
	res, err := Run(context.Background(), Config{Speedup: -1, SizeCap: 1 << 20}, tr, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts != 2 {
		t.Fatalf("Puts = %d, want 2", res.Puts)
	}
	sort.Slice(rec.sizes, func(i, j int) bool { return rec.sizes[i] < rec.sizes[j] })
	if len(rec.sizes) != 2 || rec.sizes[0] != 4<<10 || rec.sizes[1] != 1<<20 {
		t.Fatalf("put sizes = %v, want [4096 1048576]", rec.sizes)
	}
}

// errLostOnce fails the first Get per key with ErrLost, then defers to
// the dummy.
type errLostOnce struct {
	*Dummy
	mu   sync.Mutex
	seen map[string]bool
}

func (e *errLostOnce) Get(ctx context.Context, key string) (bool, error) {
	e.mu.Lock()
	first := !e.seen[key]
	e.seen[key] = true
	e.mu.Unlock()
	if first {
		return false, fmt.Errorf("%w: node reclaimed", ErrLost)
	}
	return e.Dummy.Get(ctx, key)
}

func TestErrLostCountsAsResetAndReinserts(t *testing.T) {
	tr := getTrace(
		[]time.Duration{0, time.Millisecond, 2 * time.Millisecond},
		[]string{"a", "a", "a"}, 256)
	b := &errLostOnce{Dummy: NewDummy(), seen: make(map[string]bool)}
	res, err := Run(context.Background(), Config{Speedup: -1, Sessions: 1}, tr, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resets != 1 || res.Hits != 2 || res.Errors != 0 {
		t.Fatalf("resets/hits/errors = %d/%d/%d, want 1/2/0", res.Resets, res.Hits, res.Errors)
	}
	if res.Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1 (RESET triggers re-insert)", res.Inserts)
	}
}

// batchDummy gives the dummy a batched fast path and records burst
// sizes. The first call stalls briefly in real time so the dispatcher
// fills the queue and the drain path actually has something to batch.
type batchDummy struct {
	*Dummy
	mu     sync.Mutex
	first  bool
	bursts []int
}

func (b *batchDummy) stallOnce() {
	b.mu.Lock()
	stall := !b.first
	b.first = true
	b.mu.Unlock()
	if stall {
		time.Sleep(20 * time.Millisecond)
	}
}

func (b *batchDummy) Get(ctx context.Context, key string) (bool, error) {
	b.stallOnce()
	return b.Dummy.Get(ctx, key)
}

func (b *batchDummy) MGet(ctx context.Context, keys []string) []GetStatus {
	b.stallOnce()
	b.mu.Lock()
	b.bursts = append(b.bursts, len(keys))
	b.mu.Unlock()
	out := make([]GetStatus, len(keys))
	for i, k := range keys {
		hit, err := b.Dummy.Get(ctx, k)
		out[i] = GetStatus{Hit: hit, Err: err}
	}
	return out
}

func (b *batchDummy) MPut(ctx context.Context, keys []string, sizes []int64) []error {
	out := make([]error, len(keys))
	for i, k := range keys {
		out[i] = b.Dummy.Put(ctx, k, sizes[i])
	}
	return out
}

func TestBatchDrainUsesMGet(t *testing.T) {
	n := 24
	times := make([]time.Duration, n)
	keys := make([]string, n)
	for i := range times {
		times[i] = time.Duration(i) * time.Microsecond
		keys[i] = fmt.Sprintf("k%d", i%6)
	}
	tr := getTrace(times, keys, 512)

	b := &batchDummy{Dummy: NewDummy()}
	if _, err := Preload(context.Background(), b, tr.Records, 0, 4); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 6 {
		t.Fatalf("preload stored %d objects, want 6", b.Len())
	}

	res, err := Run(context.Background(), Config{Speedup: -1, Sessions: 1, Batch: 8, NoInsertOnMiss: true}, tr, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets != n || res.Hits != n {
		t.Fatalf("gets/hits = %d/%d, want %d/%d (preloaded keys must all hit)", res.Gets, res.Hits, n, n)
	}
	max := 0
	for _, sz := range b.bursts {
		if sz > max {
			max = sz
		}
	}
	if max < 2 {
		t.Fatalf("largest MGet burst = %d, want >= 2 (queue built up behind the stalled first op)", max)
	}
	if max > 8 {
		t.Fatalf("largest MGet burst = %d, exceeds Batch = 8", max)
	}
}

func TestHourBucketsAndSummary(t *testing.T) {
	tr := &workload.Trace{Records: []workload.Record{
		{Time: 0, Op: workload.OpPut, Key: "a", Size: 1024},
		{Time: time.Minute, Op: workload.OpGet, Key: "a", Size: 1024},
		{Time: 61 * time.Minute, Op: workload.OpGet, Key: "a", Size: 1024},
		{Time: 62 * time.Minute, Op: workload.OpGet, Key: "nope", Size: 64},
	}}
	res, err := Run(context.Background(), Config{Speedup: -1, Sessions: 1}, tr, NewDummy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != 2 {
		t.Fatalf("Hours buckets = %d, want 2", len(res.Hours))
	}
	if res.Hours[0].Gets != 1 || res.Hours[0].Puts != 1 {
		t.Fatalf("hour 0 = %+v, want 1 get / 1 put", res.Hours[0])
	}
	if res.Hours[1].Gets != 2 || res.Hours[1].Hits != 1 || res.Hours[1].Misses != 1 {
		t.Fatalf("hour 1 = %+v, want 2 gets / 1 hit / 1 miss", res.Hours[1])
	}
	out := res.Summary()
	for _, want := range []string{"replayed 4 records", "GET hit", "latency from scheduled arrival"} {
		if !contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRunCancellation(t *testing.T) {
	clk := pumpedManual(t)
	times := make([]time.Duration, 50)
	keys := make([]string, 50)
	for i := range times {
		times[i] = time.Duration(i) * time.Second
		keys[i] = fmt.Sprintf("k%d", i)
	}
	tr := getTrace(times, keys, 128)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result, 1)
	go func() {
		res, _ := Run(ctx, Config{Clock: clk}, tr, NewDummy())
		done <- res
	}()
	time.Sleep(30 * time.Millisecond) // real: let a few virtual seconds elapse
	cancel()
	select {
	case res := <-done:
		if res.Gets >= 50 {
			t.Fatalf("dispatched all %d records despite cancellation", res.Gets)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// barrierBackend wraps a Dummy and, on the first Get it serves, parks
// until every participating backend has served at least one Get. If the
// engine routed all sessions onto one backend the barrier could never
// clear and the test would hang (caught by the watchdog below), so a
// clean finish proves the round-robin spread in Config.SessionBackends.
type barrierBackend struct {
	*Dummy
	once    sync.Once
	arrived *sync.WaitGroup
	gets    int64
}

func (b *barrierBackend) Get(ctx context.Context, key string) (bool, error) {
	b.once.Do(func() {
		b.arrived.Done()
		b.arrived.Wait()
	})
	atomic.AddInt64(&b.gets, 1)
	return b.Dummy.Get(ctx, key)
}

func TestSessionBackendsRoundRobin(t *testing.T) {
	const nBackends = 3
	var arrived sync.WaitGroup
	arrived.Add(nBackends)
	backends := make([]Backend, nBackends)
	bbs := make([]*barrierBackend, nBackends)
	for i := range backends {
		bbs[i] = &barrierBackend{Dummy: NewDummy(), arrived: &arrived}
		backends[i] = bbs[i]
	}

	times := make([]time.Duration, 24)
	keys := make([]string, 24)
	for i := range times {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	tr := getTrace(times, keys, 1024)

	done := make(chan *Result, 1)
	go func() {
		res, err := Run(context.Background(), Config{
			Speedup:         -1,
			Sessions:        nBackends,
			NoInsertOnMiss:  true,
			SessionBackends: backends,
		}, tr, NewDummy())
		if err != nil {
			t.Errorf("Run: %v", err)
		}
		done <- res
	}()

	var res *Result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("replay hung: sessions were not spread across SessionBackends")
	}
	if res == nil {
		t.Fatal("no result")
	}
	if res.Gets != len(times) {
		t.Fatalf("Gets = %d, want %d", res.Gets, len(times))
	}
	var total int64
	for i, bb := range bbs {
		n := atomic.LoadInt64(&bb.gets)
		if n == 0 {
			t.Errorf("backend %d served no GETs", i)
		}
		total += n
	}
	if total != int64(len(times)) {
		t.Fatalf("backends served %d GETs total, want %d", total, len(times))
	}
}
