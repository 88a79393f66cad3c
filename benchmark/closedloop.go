package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"infinicache/internal/client"
)

// target is what the closed-loop driver drives: the client library, or
// an in-memory map for the harness floor.
type target interface {
	GetObject(ctx context.Context, key string) (object, error)
	GetRange(ctx context.Context, key string, off, n int64) ([]byte, error)
	PutCtx(ctx context.Context, key string, value []byte) error
	PutReader(ctx context.Context, key string, size int64, r io.Reader) error
}

type object interface {
	io.WriterTo
	Release()
}

type clientTarget struct{ *client.Client }

func (t clientTarget) GetObject(ctx context.Context, key string) (object, error) {
	o, err := t.Client.GetObject(ctx, key)
	if err != nil {
		return nil, err
	}
	return o, nil
}

func clientTargets(cs [numClients]*client.Client) (ts [numClients]target) {
	for i, c := range cs {
		ts[i] = clientTarget{c}
	}
	return ts
}

// mapTarget is the harness floor's stand-in for the whole system.
type mapTarget struct {
	mu sync.Mutex
	m  map[string][]byte
}

type memObject []byte

func (o memObject) WriteTo(w io.Writer) (int64, error) { n, err := w.Write(o); return int64(n), err }
func (o memObject) Release()                           {}

func (t *mapTarget) GetObject(_ context.Context, key string) (object, error) {
	t.mu.Lock()
	b, ok := t.m[key]
	t.mu.Unlock()
	if !ok {
		return nil, client.ErrMiss
	}
	return memObject(b), nil
}

func (t *mapTarget) GetRange(_ context.Context, key string, off, n int64) ([]byte, error) {
	t.mu.Lock()
	b, ok := t.m[key]
	t.mu.Unlock()
	if !ok {
		return nil, client.ErrMiss
	}
	return b[off : off+n], nil
}

func (t *mapTarget) PutCtx(_ context.Context, key string, value []byte) error {
	t.mu.Lock()
	t.m[key] = value
	t.mu.Unlock()
	return nil
}

func (t *mapTarget) PutReader(ctx context.Context, key string, size int64, r io.Reader) error {
	b := make([]byte, size)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	return t.PutCtx(ctx, key, b)
}

// mix is one closed-loop traffic mix. Each client owns KeysPerClient
// whole objects of ObjSize bytes (two clients racing a PUT on one key
// legitimately fail with "chunk superseded", so the key space is
// partitioned) and, when StreamSize > 0, one streamed object it reads
// 1 MiB ranges from.
type mix struct {
	KeysPerClient int
	ObjSize       int
	ZipfS         float64 // key popularity exponent; 0 = uniform
	PutPct        int
	RangePct      int // the rest is whole-object GETs
	StreamSize    int64
	RangeLen      int64
}

// fullCompareEvery: one read in this many is compared byte for byte;
// every read is checked for length and head/tail stamps.
const fullCompareEvery = 16

// sample is one finished op: when it ended, how long the call took,
// and the payload bytes it moved.
type sample struct {
	end, dur int64 // ns on the benchmark clock
	bytes    int64
	kind     opKind
	ok       bool
}

// recorder collects the samples, byte mismatches and first error of
// one load-generating goroutine.
type recorder struct {
	samples    []sample
	mismatches int64 // reads that returned wrong bytes
	firstErr   error
}

func (rec *recorder) fail(err error) {
	if rec.firstErr == nil {
		rec.firstErr = err
	}
}

// clientGen is one client goroutine's generator state: its keys, the
// version it last wrote to each, its RNG and its samples.
type clientGen struct {
	id        int
	rng       *rand.Rand
	zipf      *rand.Zipf
	keys      []string
	ver       []uint32 // version last written to each key
	unsure    []bool   // a PUT of ver+1 failed: the key may hold either version
	stream    string
	v         verifier
	nops      uint64
	*recorder // of the pass in progress
}

func newClientGen(id int, seed int64, m *mix) *clientGen {
	g := &clientGen{
		id:     id,
		rng:    rand.New(rand.NewSource(seed*numClients + int64(id))),
		keys:   make([]string, m.KeysPerClient),
		ver:    make([]uint32, m.KeysPerClient),
		unsure: make([]bool, m.KeysPerClient),
		stream: fmt.Sprintf("c%d/stream", id),
	}
	for i := range g.keys {
		g.keys[i] = fmt.Sprintf("c%d/k%05d", id, i)
	}
	if m.ZipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, m.ZipfS, 1, uint64(m.KeysPerClient-1))
	}
	return g
}

// keyIdx is the global index content is derived from.
func (g *clientGen) keyIdx(i int) int { return i*numClients + g.id }

// streamBase is the content base of the client's streamed object.
func (g *clientGen) streamBase() int { return contentBase(1<<20+g.id, 1) }

// preload writes version 1 of every key, and the streamed object.
func (g *clientGen) preload(ctx context.Context, t target, m *mix) error {
	for i, key := range g.keys {
		if err := t.PutCtx(ctx, key, wholeValue(contentBase(g.keyIdx(i), 1), m.ObjSize)); err != nil {
			return fmt.Errorf("preload %s: %w", key, err)
		}
		g.ver[i] = 1
	}
	if m.StreamSize > 0 {
		r := &patternReader{size: m.StreamSize, base: g.streamBase()}
		if err := t.PutReader(ctx, g.stream, m.StreamSize, r); err != nil {
			return fmt.Errorf("preload %s: %w", g.stream, err)
		}
	}
	return nil
}

// begin and finish take the op's two latency stamps; with a tracer they
// are the traced op's t0 and t6, so the stage ledger and the latency
// sample describe the same interval.
func (g *clientGen) begin(tr *tracer, kind opKind, key string) (*opTrace, int64) {
	if tr == nil {
		return nil, nanos()
	}
	op := tr.begin(g.id, kind, key)
	return op, op.t0
}

func (g *clientGen) finish(tr *tracer, op *opTrace, failed bool) int64 {
	if op == nil {
		return nanos()
	}
	tr.end(g.id, op, failed)
	return op.t6
}

// one issues and verifies one op and records its sample.
func (g *clientGen) one(ctx context.Context, t target, m *mix, tr *tracer) {
	g.nops++
	full := g.nops%fullCompareEvery == 0
	ki := 0
	if g.zipf != nil {
		ki = int(g.zipf.Uint64())
	} else {
		ki = g.rng.Intn(len(g.keys))
	}
	kind := kindGet
	if p := g.rng.Intn(100); p < m.PutPct {
		kind = kindPut
	} else if p < m.PutPct+m.RangePct {
		kind = kindRange
	} else if g.unsure[ki] {
		kind = kindPut // settle the key's content before reading it again
	}

	var op *opTrace
	var err error
	var t0, t1 int64
	switch kind {
	case kindGet:
		key := g.keys[ki]
		var obj object
		op, t0 = g.begin(tr, kind, key)
		obj, err = t.GetObject(ctx, key)
		t1 = g.finish(tr, op, err != nil)
		if err == nil {
			g.v.reset(contentBase(g.keyIdx(ki), g.ver[ki]), 0, int64(m.ObjSize), full)
			obj.WriteTo(&g.v)
			obj.Release()
			if err = g.v.err(); err != nil {
				g.mismatches++
				err = fmt.Errorf("get %s v%d: %w", key, g.ver[ki], err)
			}
		}
	case kindPut:
		key, next := g.keys[ki], g.ver[ki]+1
		val := wholeValue(contentBase(g.keyIdx(ki), next), m.ObjSize)
		op, t0 = g.begin(tr, kind, key)
		err = t.PutCtx(ctx, key, val)
		t1 = g.finish(tr, op, err != nil)
		if g.unsure[ki] = err != nil; err == nil {
			g.ver[ki] = next
		}
	case kindRange:
		// A 1 MiB range at a non-MiB-aligned offset: exactly two shard
		// fetches at the default 1 MiB stripe shard.
		off := g.rng.Int63n(m.StreamSize - m.RangeLen)
		if off%(1<<20) == 0 {
			off++
		}
		var b []byte
		op, t0 = g.begin(tr, kind, g.stream)
		b, err = t.GetRange(ctx, g.stream, off, m.RangeLen)
		t1 = g.finish(tr, op, err != nil)
		if err == nil {
			g.v.reset(g.streamBase(), off, m.RangeLen, full)
			g.v.Write(b)
			if err = g.v.err(); err != nil {
				g.mismatches++
				err = fmt.Errorf("range %s@%d: %w", g.stream, off, err)
			}
		}
	}
	if err != nil {
		g.fail(err)
	}
	size := int64(m.ObjSize)
	if kind == kindRange {
		size = m.RangeLen
	}
	g.samples = append(g.samples, sample{end: t1, dur: t1 - t0, bytes: size, kind: kind, ok: err == nil})
}

// counters is a named set of monotonic counts read from the stack's
// public counters; passes diff two of them.
type counters map[string]int64

// snapshot is what the pass coordinator records at a window boundary.
type snapshot struct {
	t        int64
	cpu      float64 // process user+sys seconds
	gcCPU    float64 // cumulative GC CPU seconds
	mem      runtime.MemStats
	counters counters
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func takeSnapshot(count func() counters) snapshot {
	s := snapshot{t: nanos(), cpu: processCPU(), gcCPU: gcCPUSeconds()}
	runtime.ReadMemStats(&s.mem)
	if count != nil {
		s.counters = count()
	}
	return s
}

// pass is one measured run: a discarded warm-up, then windows whose
// boundaries are the snapshots.
type pass struct {
	snaps []snapshot // windows+1
	recs  [numClients]*recorder
	ws    []window // filled by windows()
}

// minSamples: a pass does not end before every kind of op of its mix
// has finished this many times, however slow the machine; the last
// window is stretched until then. A pass of the benchmark's own length has
// hundreds by the time its last window is due.
const minSamples = 3

// runPass drives every client goroutine through a discarded warm-up and
// then `windows` windows, taking a snapshot at every boundary. Each pass
// records into its own recorders; key versions carry over.
func runPass(ctx context.Context, ts [numClients]target, gens [numClients]*clientGen, m *mix,
	warmup, window time.Duration, windows int, tr *tracer, count func() counters) *pass {
	var stop atomic.Bool
	var measuring atomic.Int64          // the first boundary's time, once taken
	var finished [numKinds]atomic.Int64 // ops ended in the windows, failed ones too
	var wg sync.WaitGroup
	p := &pass{}
	for i := range gens {
		p.recs[i] = &recorder{samples: make([]sample, 0, 1<<16)}
		gens[i].recorder = p.recs[i]
		wg.Add(1)
		go func(g *clientGen, t target) {
			defer wg.Done()
			for !stop.Load() {
				g.one(ctx, t, m, tr)
				if s := g.samples[len(g.samples)-1]; measuring.Load() != 0 && s.end >= measuring.Load() {
					finished[s.kind].Add(1)
				}
			}
		}(gens[i], ts[i])
	}
	enough := func() bool {
		get, put, rng := 100-m.PutPct-m.RangePct > 0, m.PutPct > 0, m.RangePct > 0
		return (!get || finished[kindGet].Load() >= minSamples) && (!put || finished[kindPut].Load() >= minSamples) &&
			(!rng || finished[kindRange].Load() >= minSamples)
	}
	start := time.Now()
	for w := 0; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(warmup + time.Duration(w)*window)))
		for w == windows && !enough() {
			time.Sleep(window / 10)
		}
		p.snaps = append(p.snaps, takeSnapshot(count))
		measuring.CompareAndSwap(0, p.snaps[0].t)
	}
	stop.Store(true)
	wg.Wait()
	return p
}

// window is one window's aggregate.
type window struct {
	seconds  float64
	ok       int64
	attempts int64
	bytes    int64
	cpu      float64
	lat      [numKinds][]int64 // sorted, successful ops only
}

func (w window) opsPerSecond() float64 { return ratio(float64(w.ok), w.seconds) }

func (p *pass) windows() []window {
	if p.ws != nil {
		return p.ws
	}
	ws := make([]window, len(p.snaps)-1)
	for i := range ws {
		ws[i].seconds = float64(p.snaps[i+1].t-p.snaps[i].t) / 1e9
		ws[i].cpu = p.snaps[i+1].cpu - p.snaps[i].cpu
	}
	for _, rec := range p.recs {
		for _, s := range rec.samples {
			// Find the window the op ended in.
			i := sort.Search(len(p.snaps), func(i int) bool { return p.snaps[i].t > s.end }) - 1
			if i < 0 || i >= len(ws) {
				continue // warm-up, or after the last boundary
			}
			w := &ws[i]
			w.attempts++
			if s.ok {
				w.ok++
				w.bytes += s.bytes
				w.lat[s.kind] = append(w.lat[s.kind], s.dur)
			}
		}
	}
	for i := range ws {
		for k := range ws[i].lat {
			l := ws[i].lat[k]
			sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		}
	}
	p.ws = ws
	return ws
}

// quantile of a sorted slice (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(float64(len(sorted)-1)*q)])
}

// quartiles of xs, cut the way Python's statistics.quantiles(xs, n=4)
// cuts them; xs needs two values or more.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func medianOf(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	_, q2, _ := quartiles(xs)
	return q2
}

// stat is a metric value with how it was obtained: the median window,
// with the windows' interquartile range as a share of it; or a value
// taken over the run's samples pooled (Spread 0).
type stat struct {
	Value   float64   `json:"value"`
	Spread  float64   `json:"spread"`
	Samples int       `json:"samples,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
	Pooled  bool      `json:"pooled,omitempty"`
}

func windowStat(vals []float64, samples int) stat {
	st := stat{Value: medianOf(vals), Samples: samples, Windows: vals}
	if len(vals) >= 2 && st.Value != 0 {
		q1, _, q3 := quartiles(vals)
		st.Spread = (q3 - q1) / st.Value
	}
	return st
}

// minBeyond is how many samples must lie beyond a quantile, in every
// window, for it to be reported per window.
const minBeyond = 10

// latencyStat reports quantile q of kind k in microseconds: per window
// (median window) when every window has minBeyond samples beyond q,
// otherwise over all windows pooled.
func latencyStat(ws []window, k opKind, q float64) stat {
	perWindow, total := true, 0
	for _, w := range ws {
		total += len(w.lat[k])
		if float64(len(w.lat[k]))*(1-q) < minBeyond {
			perWindow = false
		}
	}
	if total == 0 {
		return stat{}
	}
	if perWindow {
		vals := make([]float64, len(ws))
		for i, w := range ws {
			vals[i] = quantile(w.lat[k], q) / 1e3
		}
		return windowStat(vals, total)
	}
	return pooledLatency(ws, k, q)
}

// pooledLatency reports quantile q of kind k in microseconds over the
// samples of all windows together.
func pooledLatency(ws []window, k opKind, q float64) stat {
	var all []int64
	for _, w := range ws {
		all = append(all, w.lat[k]...)
	}
	if len(all) == 0 {
		return stat{}
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return stat{Value: quantile(all, q) / 1e3, Samples: len(all), Pooled: true}
}

// perWindow applies f to every window and summarises.
func perWindow(ws []window, f func(w window) float64) stat {
	vals := make([]float64, len(ws))
	n := 0
	for i, w := range ws {
		vals[i] = f(w)
		n += int(w.ok)
	}
	return windowStat(vals, n)
}

func (p *pass) totals() (attempted, failed, mismatches int64, firstErr error) {
	for _, w := range p.windows() {
		attempted += w.attempts
		failed += w.attempts - w.ok
	}
	for _, rec := range p.recs {
		mismatches += rec.mismatches
		if firstErr == nil {
			firstErr = rec.firstErr
		}
	}
	return
}

// delta is the counter difference over the pass's windows.
func (p *pass) delta(name string) float64 {
	first, last := p.snaps[0].counters, p.snaps[len(p.snaps)-1].counters
	return float64(last[name] - first[name])
}
