package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"infinicache/internal/client"
)

// closedDef is a closed-loop workload on the warm stack.
type closedDef struct {
	HotTierBytes int64
	Mix          mix
}

var closedDefs = map[string]closedDef{
	// 4096 keys x 4 KiB, uniform, 90% GET / 10% PUT, hot tier off.
	"small_cold": {0, mix{KeysPerClient: 2048, ObjSize: 4 << 10, PutPct: 10}},
	// Same keys and mix, Zipf(1.1) per client; the 4 MiB tier is a
	// quarter of the 16 MiB working set, so admission and CLOCK
	// eviction run continuously.
	"small_hot": {4 << 20, mix{KeysPerClient: 2048, ObjSize: 4 << 10, PutPct: 10, ZipfS: 1.1}},
	// 16 keys x 8 MiB plus one 60 MiB streamed object per client (six
	// full stripes at the default 1 MiB stripe shard): 60% GET, 25% PUT,
	// 15% 1 MiB ranged reads.
	"large_rw": {0, mix{KeysPerClient: 8, ObjSize: 8 << 20, PutPct: 25, RangePct: 15,
		StreamSize: 60 << 20, RangeLen: 1 << 20}},
}

// Run shape. A run measures for `seconds`, cut into numWindows windows;
// a workload's value is its median window. Many short windows rather
// than a few long ones: this box runs in two regimes (a GC cycle empties
// the sync.Pool-backed buffer pools and the next few hundred
// milliseconds refault their memory), and the median of many windows
// stays in the common one.
const (
	setupRepeats  = 5 // set-up is done this many times; setup_s is the median
	maxWarmup     = 2 * time.Second
	tracedWindows = 6
	// A traced run splits `seconds` into an untraced counting pass, the
	// traced pass, and the layer probes.
	countShare  = 0.3
	tracedShare = 0.3
	probeShare  = 0.4
)

// minWindow: a shorter window holds too few 8 MiB ops to have a median;
// a pass too short for its windows is cut into fewer.
const minWindow = 100 * time.Millisecond

// windowsOf cuts a pass of `seconds` into at most n windows.
func windowsOf(seconds float64, n int) (time.Duration, int) {
	d := time.Duration(seconds * float64(time.Second))
	n = max(1, min(n, int(d/minWindow)))
	return d / time.Duration(n), n
}

// warmupFor is the discarded start of a pass: a fifth of the measuring
// time, at most maxWarmup.
func warmupFor(seconds float64) time.Duration {
	if w := time.Duration(seconds / 5 * float64(time.Second)); w < maxWarmup {
		return w
	}
	return maxWarmup
}

// result is everything one run measured.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Mismatches int64              `json:"mismatches"`
	FirstError string             `json:"first_error,omitempty"`
	Metrics    map[string]stat    `json:"metrics"`
	Ledger     map[string]float64 `json:"ledger_shares,omitempty"` // "<kind>/<stage>" -> share of op latency
	PhaseWall  map[string]float64 `json:"phase_wall_s"`
}

func newResult(name string, seed int64, seconds float64, trace bool) *result {
	return &result{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Metrics: map[string]stat{}, PhaseWall: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = stat{Value: v} }

// phase times f and records its wall time.
func (r *result) phase(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	r.PhaseWall[name] += time.Since(t0).Seconds()
	return err
}

// timedSetups runs setup n times, discarding every stack but the last,
// and sets setup_s to the median of the n times.
func (r *result) timedSetups(n int, setup func() error, discard func()) error {
	var times []float64
	err := r.phase("setup", func() error {
		for i := 0; i < n; i++ {
			if i > 0 {
				discard()
			}
			t0 := time.Now()
			if err := setup(); err != nil {
				return err
			}
			times = append(times, time.Since(t0).Seconds())
		}
		return nil
	})
	if err == nil {
		r.Metrics["setup_s"] = windowStat(times, 0)
	}
	return err
}

// account folds a pass's op counts into the run's.
func (r *result) account(p *pass) {
	a, f, m, err := p.totals()
	r.Attempted += a
	r.Failed += f
	r.Mismatches += m
	if err != nil && r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// preloadAll makes each client's generator and has it write its keys,
// all clients at once.
func preloadAll(ctx context.Context, cs [numClients]*client.Client, seed int64, m *mix) ([numClients]*clientGen, error) {
	var gens [numClients]*clientGen
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for i := range gens {
		gens[i] = newClientGen(i, seed, m)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = gens[i].preload(ctx, clientTarget{cs[i]}, m)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return gens, err
		}
	}
	return gens, nil
}

// setupClosed starts a warm stack and preloads it: what setup_s times.
func setupClosed(ctx context.Context, def closedDef, seed int64) (*warmStack, [numClients]*clientGen, error) {
	s, err := newWarmStack(def.HotTierBytes)
	if err != nil {
		return nil, [numClients]*clientGen{}, err
	}
	gens, err := preloadAll(ctx, s.clients, seed, &def.Mix)
	if err != nil {
		s.Close()
		return nil, gens, err
	}
	return s, gens, nil
}

// endToEnd fills the end-to-end metrics the windows of a pass yield;
// latency is latencyStat, or pooledLatency where the windows are few.
func endToEnd(r *result, ws []window, latency func([]window, opKind, float64) stat) {
	r.Metrics["ops_per_s"] = perWindow(ws, window.opsPerSecond)
	r.Metrics["mb_per_s"] = perWindow(ws, func(w window) float64 { return ratio(float64(w.bytes)/(1<<20), w.seconds) })
	r.Metrics["get_p50_us"] = latency(ws, kindGet, 0.50)
	r.Metrics["get_p90_us"] = latency(ws, kindGet, 0.90)
	r.Metrics["put_p50_us"] = latency(ws, kindPut, 0.50)
	r.Metrics["cpu_us_per_op"] = perWindow(ws, func(w window) float64 { return ratio(w.cpu*1e6, float64(w.ok)) })
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reads counts the pass's GETs and ranged reads and how many of them
// were hits: on a preloaded stack, every read that returned the right
// bytes.
func (p *pass) reads() (reads, hits int64) {
	for _, rec := range p.recs {
		for _, s := range rec.samples {
			if s.end < p.snaps[0].t || s.end >= p.snaps[len(p.snaps)-1].t || s.kind == kindPut {
				continue
			}
			reads++
			if s.ok {
				hits++
			}
		}
	}
	return
}

// runClosed runs one closed-loop workload.
func runClosed(name string, seed int64, seconds float64, trace bool, traceOut string) (*result, error) {
	def := closedDefs[name]
	r := newResult(name, seed, seconds, trace)
	ctx := context.Background()
	if trace {
		return r, runClosedTraced(ctx, r, def, traceOut)
	}

	var s *warmStack
	var gens [numClients]*clientGen
	err := r.timedSetups(setupRepeats, func() (err error) {
		s, gens, err = setupClosed(ctx, def, seed)
		return err
	}, func() { s.Close() })
	if err != nil {
		return r, err
	}
	defer s.Close()

	runtime.GC()
	var p *pass
	r.phase("windows", func() error {
		window, n := windowsOf(seconds, numWindows)
		p = runPass(ctx, clientTargets(s.clients), gens, &def.Mix, warmupFor(seconds), window, n, nil, nil)
		return nil
	})
	r.account(p)
	endToEnd(r, p.windows(), latencyStat)
	guardedLatencies(r, p.windows())
	readRatios(r, p)
	return r, nil
}

// readRatios sets hit_ratio and ok_ratio of a closed-loop run.
func readRatios(r *result, p *pass) {
	reads, hits := p.reads()
	r.set("hit_ratio", ratio(float64(hits), float64(reads)))
	r.set("ok_ratio", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)))
}

// counters reads every public counter the per-layer count metrics
// are derived from, for the given client pair.
func (s *warmStack) counters(cs [numClients]*client.Client) func() counters {
	return func() counters {
		c := counters{}
		for i, cl := range cs {
			clientCounters(c, cl)
			if tap := s.taps[i]; tap != nil && cl == s.tapped[i] {
				c["tap.writes"] += tap.writes.Load()
				c["tap.bytes"] += tap.bytes.Load()
			}
		}
		proxyCounters(c, s.px.Stats(), s.px.WireSnapshot().Flushes)
		return c
	}
}

// gcCPUSeconds is the process's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// countMetrics derives the per-op count metrics from a pass's counter
// and runtime deltas.
func countMetrics(r *result, p *pass) {
	first, last := p.snaps[0], p.snaps[len(p.snaps)-1]
	var ops, gets float64
	for _, w := range p.windows() {
		ops += float64(w.ok)
		gets += float64(len(w.lat[kindGet]))
	}
	per := func(name string) float64 { return ratio(p.delta(name), ops) }
	// Per whole-object GET: a healthy ranged read never decodes.
	r.set("ec.decodes_per_get", ratio(p.delta("client.decodes"), gets))
	r.set("protocol.client_flushes_per_op", per("client.flushes"))
	r.set("protocol.client_frames_per_flush", ratio(p.delta("client.frames_out"), p.delta("client.flushes")))
	r.set("protocol.proxy_flushes_per_op", per("proxy.flushes"))
	r.set("client.recoveries", p.delta("client.recoveries"))
	r.set("client.losses", p.delta("client.losses"))
	r.set("proxy.node_chunk_gets_per_get", ratio(p.delta("proxy.node_chunk_gets"), p.delta("proxy.gets")))
	r.set("proxy.hot_hit_ratio", ratio(p.delta("proxy.hot_hits"), p.delta("proxy.hot_hits")+p.delta("proxy.hot_misses")))
	r.set("proxy.hot_evictions_per_kop", 1000*per("proxy.hot_evictions"))
	r.set("proxy.degraded_gets", p.delta("proxy.degraded_gets"))
	r.set("proxy.chunk_failures", p.delta("proxy.chunk_failures"))
	r.set("proc.allocs_per_op", ratio(float64(last.mem.Mallocs-first.mem.Mallocs), ops))
	r.set("proc.alloc_kib_per_op", ratio(float64(last.mem.TotalAlloc-first.mem.TotalAlloc)/1024, ops))
	r.set("proc.gc_cpu_frac", ratio(last.gcCPU-first.gcCPU, last.cpu-first.cpu))
}

// guardedLatencies fills the latency metrics that exist on some
// workloads only. They are per-layer metrics to the driver, yet they
// are taken in the untraced windows too, where -compare judges them.
func guardedLatencies(r *result, ws []window) {
	r.Metrics["client.get_p99_us"] = latencyStat(ws, kindGet, 0.99)
	r.Metrics["client.put_p99_us"] = latencyStat(ws, kindPut, 0.99)
	r.Metrics["client.range_p50_us"] = latencyStat(ws, kindRange, 0.50)
}

// runClosedTraced is the traced run of a closed-loop workload: an
// untraced counting pass, the traced pass, then the layer probes.
func runClosedTraced(ctx context.Context, r *result, def closedDef, traceOut string) error {
	var s *warmStack
	var gens [numClients]*clientGen
	err := r.timedSetups(1, func() (err error) {
		s, gens, err = setupClosed(ctx, def, r.Seed)
		return err
	}, nil)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()

	runtime.GC()
	var counted, traced *pass
	r.phase("count", func() error {
		window, n := windowsOf(r.Seconds*countShare, tracedWindows)
		counted = runPass(ctx, clientTargets(s.clients), gens, &def.Mix, warmupFor(r.Seconds)/2, window, n, nil, s.counters(s.clients))
		return nil
	})
	r.account(counted)
	// The end-to-end metrics of the counting pass ride along in the
	// -json file; the result line of a traced run carries per-layer only.
	endToEnd(r, counted.windows(), latencyStat)
	guardedLatencies(r, counted.windows())
	readRatios(r, counted)
	countMetrics(r, counted)

	tr := &tracer{}
	tapped, err := s.traced(tr)
	if err != nil {
		return err
	}
	r.phase("traced", func() error {
		window, n := windowsOf(r.Seconds*tracedShare, tracedWindows)
		traced = runPass(ctx, clientTargets(tapped), gens, &def.Mix, warmupFor(r.Seconds)/4, window, n, tr, s.counters(tapped))
		return nil
	})
	r.account(traced)
	// Nodes may still be stamping stragglers of the last ops; the
	// ledger is read only after they have all exited.
	s.Close()
	closed = true

	var tracedOps float64
	for _, w := range traced.windows() {
		tracedOps += float64(w.ok)
	}
	r.set("protocol.client_writes_per_op", ratio(traced.delta("tap.writes"), tracedOps))
	r.set("protocol.client_bytes_per_op", ratio(traced.delta("tap.bytes"), tracedOps))
	r.set("trace.overhead_ratio", ratio(perWindow(traced.windows(), window.opsPerSecond).Value,
		perWindow(counted.windows(), window.opsPerSecond).Value))
	stageMetrics(r, tr, traced.snaps[0].t, traced.snaps[len(traced.snaps)-1].t)
	if traceOut != "" {
		if err := tr.writeSpans(traceOut, dataShards); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.set("proc.peak_rss_mib", peakRSSMiB())
	return nil
}

// stageMetrics summarises the stage ledger of every traced op that
// ended in [from, to): the p50 of each stage per op kind, each stage's
// share of the op, and the chunk requests per op.
func stageMetrics(r *result, tr *tracer, from, to int64) {
	type acc struct {
		stage    [numStages][]int64
		hot      []int64
		requests []int64
		sum      [numStages]int64
		hotSum   int64
		total    int64
	}
	var accs [numKinds]acc
	var serve []int64
	for c := range tr.ops {
		for _, op := range tr.ops[c] {
			if op.failed || op.t6 < from || op.t6 >= to {
				continue
			}
			l := op.ledger(dataShards)
			a := &accs[op.kind]
			a.total += l.total
			a.requests = append(a.requests, int64(l.requests))
			for _, ev := range op.nodes[:op.nNode] {
				serve = append(serve, ev.written-ev.recv)
			}
			for st, d := range l.stage {
				a.sum[st] += d
				// A tier hit has no node stages; leave them out of the
				// node-path medians rather than counting zeros.
				if l.tierHit && (st == stFanout || st == stWindow || st == stFanin) {
					continue
				}
				a.stage[st] = append(a.stage[st], d)
			}
			if l.tierHit {
				a.hot = append(a.hot, l.hot)
				a.hotSum += l.hot
			}
		}
	}
	p50us := func(xs []int64) float64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return quantile(xs, 0.5) / 1e3
	}
	r.Ledger = map[string]float64{}
	for k, a := range accs {
		kind := kindNames[k]
		if a.total == 0 {
			continue
		}
		for st, name := range stageNames {
			// "client.send" -> "client.send_get_us"
			r.Metrics[name+"_"+kind+"_us"] = stat{Value: p50us(a.stage[st]), Samples: len(a.stage[st])}
			r.Ledger[kind+"/"+name] = float64(a.sum[st]) / float64(a.total)
		}
		sort.Slice(a.requests, func(i, j int) bool { return a.requests[i] < a.requests[j] })
		r.set("node.requests_per_"+kind, quantile(a.requests, 0.5))
		if len(a.hot) > 0 {
			r.Metrics["proxy.hot_us"] = stat{Value: p50us(a.hot), Samples: len(a.hot)}
			r.Ledger[kind+"/proxy.hot"] = float64(a.hotSum) / float64(a.total)
		}
	}
	r.Metrics["node.serve_us"] = stat{Value: p50us(serve), Samples: len(serve)}
}

// runStack runs one workload on its stack: everything a run measures
// but the layer probes, which need no stack.
func runStack(name string, seed int64, seconds float64, trace bool, traceOut string) (*result, error) {
	switch {
	case name == "trace_hour":
		return runTraceHour(seed, seconds, trace)
	case closedDefs[name] != closedDef{}:
		return runClosed(name, seed, seconds, trace, traceOut)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload is one run of a workload; a traced run ends with the
// layer probes and the harness floor.
func runWorkload(name string, seed int64, seconds float64, trace bool, traceOut string) (*result, error) {
	r, err := runStack(name, seed, seconds, trace, traceOut)
	if err == nil && trace {
		err = r.phase("probes", func() error {
			return runProbes(r, time.Duration(seconds*probeShare*float64(time.Second)))
		})
	}
	if err != nil {
		return r, err
	}
	r.Correct = r.Mismatches == 0
	return r, nil
}
