package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"infinicache"
	"infinicache/internal/client"
	"infinicache/internal/costmodel"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/proxy"
	"infinicache/internal/replay"
	"infinicache/internal/vclock"
	"infinicache/internal/workload"
)

// trace_hour runs on the emulated stack — lambdaemu + the real
// lambdanode runtime + warm-ups + delta-sync backups + a reclaim
// policy. It is the only workload in which those modules execute. One
// registry trace is replayed by replay.Run, with GET-upon-miss
// insertion and verified reads, in two ways:
//
//   - open loop on a clock compressed 100x, which yields hit ratio and
//     dollars. Latency at 100x is a per-layer diagnostic only: one real
//     millisecond of scheduling is 100 virtual ms.
//   - unpaced (each of the 2 sessions sends its next record when the
//     last one returns) on a clock compressed 10x: laps over the
//     trace's first minutes, each on a fresh deployment and in an
//     order of its own, the first lap discarded as warm-up. The driver wants every end-to-end metric
//     from every workload, so the laps give the emulated stack its
//     throughput, latency and CPU numbers, on the trace's own objects
//     and its own share of insertions. At 10x the emulated link latency
//     and invocation delays are sleeps of 50 us to 1.3 ms, which timers
//     still keep; at 100x the stack cannot be driven back to back at
//     all (virtual timeouts fire on real compute time).
const (
	pacedTimeScale   = 0.01
	unpacedTimeScale = 0.1
	pacedShare       = 0.8              // of `seconds`; the laps are bounded by their records and take about the rest
	lapSpan          = 12 * time.Minute // of trace per lap: ~600 GETs and the ~140 insertions they cause
	measuredLaps     = 7                // a lap is one window; throughput and CPU are the median lap's
	// A set-up proves the stack with setupObjects 1 MiB objects, written and
	// read back one after another. Each takes one or two rounds of emulated
	// invocations (15 ms for a cold start at 10x), as the request falls
	// before or after the end of a node's billing cycle: a set-up takes 55
	// to 100 ms, and only the median of a few dozen is steady. The laps'
	// set-ups count too.
	emuSetupRepeats = 18
	setupObjects    = 4

	emuNodes        = 20
	emuNodeMemoryMB = 1536
	emuReclaimRate  = 0.6 // Poisson reclaims per minute: the paper's ~36/hour regime
	// A failed insert is retried twice, as a registry frontend would,
	// after 10 and then 60 virtual seconds: at 100x a stall of 100 real
	// milliseconds is the proxy's whole 10 s request timeout, and a retry
	// inside the same stall fails with it. Stalls of a few hundred
	// milliseconds happen on a shared machine.
	insertAttempts = 3
	// The deployment's own seed and the trace's records (which objects,
	// how large, how often each is read) are fixed; --seed draws every
	// arrival time. Records drawn per seed would move the byte volume and
	// the number of first reads, and with them hit ratio, cost and CPU,
	// by several percent between seeds.
	emuPlatformSeed = 1
	catalogueSeed   = 1
)

var insertBackoff = [insertAttempts - 1]time.Duration{10 * time.Second, 60 * time.Second}

var traceCfg = workload.Config{Objects: 200, Duration: time.Hour, MeanGetsPerHour: 3000,
	MaxObjectBytes: 4 << 20, SpikeHours: [][2]int{}, Seed: catalogueSeed}

// generateTrace is the first `span` of the hour-long trace: the records
// whose catalogue time lies in it, each at an arrival time drawn from
// seed. Every seed replays the same GETs in another order.
func generateTrace(seed int64, span time.Duration) *workload.Trace {
	span = min(span, traceCfg.Duration)
	tr := workload.Generate(traceCfg).Filter(func(r workload.Record) bool { return r.Time < span })
	rng := rand.New(rand.NewSource(seed))
	for i := range tr.Records {
		tr.Records[i].Time = time.Duration(rng.Int63n(int64(span)))
	}
	sort.SliceStable(tr.Records, func(i, j int) bool { return tr.Records[i].Time < tr.Records[j].Time })
	return tr
}

// emuStack is one emulated deployment with one verifying replay backend
// per session.
type emuStack struct {
	cache     *infinicache.Cache
	recorders [numClients]*recordingBackend
	retries   atomic.Int64
}

func (s *emuStack) Close() {
	for _, b := range s.recorders { // a backend's Close closes just its client
		if b != nil {
			b.Close()
		}
	}
	s.cache.Close()
}

// setupEmu starts the deployment on a clock compressed by timeScale,
// opens the sessions' backends and proves the stack with setupObjects
// PUTs, each followed by a verified GET, which cold-start the nodes they
// touch: what setup_s times.
func setupEmu(ctx context.Context, timeScale float64, sizes map[string]int64) (*emuStack, error) {
	cache, err := infinicache.New(
		infinicache.WithProxies(1),
		infinicache.WithNodesPerProxy(emuNodes),
		infinicache.WithNodeMemoryMB(emuNodeMemoryMB),
		infinicache.WithShards(dataShards, parityShards),
		infinicache.WithWarmupInterval(time.Minute),
		infinicache.WithBackupInterval(5*time.Minute),
		infinicache.WithReclaimPolicy(lambdaemu.PoissonPerMinute{RatePerMinute: emuReclaimRate}),
		infinicache.WithRecovery(true),
		infinicache.WithTimeScale(timeScale),
		infinicache.WithSeed(emuPlatformSeed),
	)
	if err != nil {
		return nil, err
	}
	s := &emuStack{cache: cache}
	for i := range s.recorders {
		b, err := replay.NewInfiniCache(cache)
		if err != nil {
			s.Close()
			return nil, err
		}
		b.VerifyReads(true)
		s.recorders[i] = &recordingBackend{InfiniCacheBackend: b, clock: cache.Clock(), sizes: sizes, retries: &s.retries}
	}
	for i := 0; i < setupObjects && err == nil; i++ {
		b, key := s.recorders[i%numClients].InfiniCacheBackend, fmt.Sprintf("setup/%d", i)
		if err = b.Put(ctx, key, 1<<20); err == nil {
			var hit bool
			if hit, err = b.Get(ctx, key); err == nil && !hit {
				err = fmt.Errorf("%s is missing right after its PUT", key)
			}
		}
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("set-up objects: %w", err)
	}
	return s, nil
}

// replay runs the trace through the sessions' backends and returns the
// pass it made: one window from the first record to the last.
func (s *emuStack) replay(ctx context.Context, tr *workload.Trace, speedup float64) (*pass, *replay.Result, error) {
	p := &pass{}
	sessions := make([]replay.Backend, numClients)
	for i, b := range s.recorders {
		p.recs[i] = &b.recorder
		sessions[i] = b
	}
	runtime.GC()
	p.snaps = append(p.snaps, takeSnapshot(s.counters))
	res, err := replay.Run(ctx, replay.Config{Clock: s.cache.Clock(), Speedup: speedup, Sessions: numClients, SessionBackends: sessions},
		tr, s.recorders[0])
	p.snaps = append(p.snaps, takeSnapshot(s.counters))
	return p, res, err
}

func proxyCounters(c counters, st *proxy.Stats, wireFlushes uint64) {
	c["proxy.flushes"] = int64(wireFlushes)
	c["proxy.gets"] = st.Gets.Load()
	c["proxy.node_chunk_gets"] = st.NodeChunkGets.Load()
	c["proxy.hot_hits"] = st.HotHits.Load()
	c["proxy.hot_misses"] = st.HotMisses.Load()
	c["proxy.hot_evictions"] = st.HotEvictions.Load()
	c["proxy.degraded_gets"] = st.DegradedGets.Load()
	c["proxy.chunk_failures"] = st.ChunkFailures.Load()
	c["proxy.invokes"] = st.Invokes.Load()
	c["proxy.reinvokes"] = st.Reinvokes.Load()
	c["proxy.backups_done"] = st.BackupsDone.Load()
	c["proxy.backup_swaps"] = st.BackupSwaps.Load()
}

func (s *emuStack) counters() counters {
	c := counters{}
	for _, b := range s.recorders {
		clientCounters(c, b.Client())
	}
	px := s.cache.Deployment().Proxies[0]
	proxyCounters(c, px.Stats(), px.WireSnapshot().Flushes)
	c["lambdaemu.reclaims"] = int64(len(s.cache.Deployment().Platform.ReclaimLog()))
	return c
}

func clientCounters(c counters, cl *client.Client) {
	st, w := cl.Stats(), cl.WireStats()
	c["client.decodes"] += st.Decodes.Load()
	c["client.recoveries"] += st.Recoveries.Load()
	c["client.losses"] += st.Losses.Load()
	c["client.flushes"] += int64(w.Flushes)
	c["client.frames_out"] += int64(w.FramesOut)
}

// recordingBackend is one replay session's backend. It counts the
// calls the replay makes and the ones that fail, times (on the real
// clock) the ones that move an object — a GET that hits, an insertion —
// and retries a failed insert (a PUT that loses a node to a reclaim
// mid-write is rejected). A GET that misses is an attempted, successful
// call without a latency sample.
type recordingBackend struct {
	*replay.InfiniCacheBackend
	clock   vclock.Clock
	sizes   map[string]int64
	retries *atomic.Int64

	// Owned by the one session goroutine that uses this backend.
	recorder
	attempted, failed int64
}

func (b *recordingBackend) record(kind opKind, t0 int64, size int64, timed bool, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.fail(err)
	} else if timed {
		t1 := nanos()
		b.samples = append(b.samples, sample{end: t1, dur: t1 - t0, bytes: size, kind: kind, ok: true})
	}
}

func (b *recordingBackend) Get(ctx context.Context, key string) (bool, error) {
	t0 := nanos()
	hit, err := b.InfiniCacheBackend.Get(ctx, key)
	if errors.Is(err, replay.ErrLost) { // a lost object is a RESET, not a failure
		b.record(kindGet, t0, 0, false, nil)
	} else {
		b.record(kindGet, t0, b.sizes[key], hit, err)
	}
	return hit, err
}

func (b *recordingBackend) Put(ctx context.Context, key string, size int64) (err error) {
	t0 := nanos()
	for i := 0; i < insertAttempts; i++ {
		if i > 0 {
			b.retries.Add(1)
			b.clock.Sleep(insertBackoff[i-1]) // virtual time
		}
		if err = b.InfiniCacheBackend.Put(ctx, key, size); err == nil {
			break
		}
	}
	b.record(kindPut, t0, size, true, err)
	return err
}

// account folds the sessions' call counts into the run's.
func (s *emuStack) account(r *result) {
	for _, b := range s.recorders {
		r.Attempted += b.attempted
		r.Failed += b.failed
		r.Mismatches += b.CorruptReads()
		if b.firstErr != nil && r.FirstError == "" {
			r.FirstError = b.firstErr.Error()
		}
	}
}

func quantileMS(seconds []float64, q float64) float64 {
	if len(seconds) == 0 {
		return 0
	}
	s := append([]float64(nil), seconds...)
	sort.Float64s(s)
	return s[int(float64(len(s)-1)*q)] * 1e3
}

func runTraceHour(seed int64, seconds float64, trace bool) (*result, error) {
	r := newResult("trace_hour", seed, seconds, trace)
	ctx := context.Background()
	wall := time.Duration(seconds * pacedShare * float64(time.Second))
	span := time.Duration(float64(wall) / pacedTimeScale)

	// A set-up generates the trace it will replay and starts a
	// deployment. setup_s is the median set-up of a lap: the open-loop
	// replay's own set-up sleeps a tenth as long.
	var setups []float64
	timedSetup := func(seed int64, timeScale float64, span time.Duration) (s *emuStack, tr *workload.Trace, err error) {
		err = r.phase("setup", func() error {
			runtime.GC() // the last deployment's garbage is not this set-up's cost
			t0 := time.Now()
			tr = generateTrace(seed, span)
			s, err = setupEmu(ctx, timeScale, tr.Objects)
			if timeScale == unpacedTimeScale {
				setups = append(setups, time.Since(t0).Seconds())
			}
			return err
		})
		return s, tr, err
	}

	// The unpaced laps: one to warm the process up, then the measured
	// ones. A traced run counts over a single lap and reports no setup_s.
	laps := 1 + measuredLaps
	if trace {
		laps = 2
	} else {
		for i := 0; i < emuSetupRepeats; i++ {
			s, _, err := timedSetup(seed, unpacedTimeScale, min(span, lapSpan))
			if err != nil {
				return r, err
			}
			s.Close()
		}
	}
	var windows []window
	var lap *pass
	for i := 0; i < laps; i++ {
		// Each lap replays the records in an order of its own: how long an
		// insertion takes depends on what the other session is doing, and
		// one order per run would move put_p50_us by 5% from seed to seed.
		s, tr, err := timedSetup(seed*int64(laps)+int64(i), unpacedTimeScale, min(span, lapSpan))
		if err != nil {
			return r, err
		}
		err = r.phase("unpaced", func() (err error) {
			lap, _, err = s.replay(ctx, tr, -1)
			return err
		})
		s.account(r)
		s.Close()
		if err != nil {
			return r, err
		}
		if i > 0 {
			windows = append(windows, lap.windows()...)
		}
	}
	// Every lap replays the same records, so the laps' latency samples are
	// one population: a lap's ~140 insertions alone have no steady median.
	endToEnd(r, windows, pooledLatency)
	if trace {
		countMetrics(r, lap)
	}

	// The open-loop replay.
	s, tr, err := timedSetup(seed, pacedTimeScale, span)
	if err != nil {
		return r, err
	}
	defer s.Close()
	r.Metrics["setup_s"] = windowStat(setups, 0)
	platform := s.cache.Deployment().Platform
	usage0 := platform.Ledger().Total()
	var p *pass
	var res *replay.Result
	err = r.phase("replay", func() (err error) {
		p, res, err = s.replay(ctx, tr, 1)
		return err
	})
	s.account(r)
	if err != nil {
		return r, err
	}
	usage := platform.Ledger().Total()
	hours := span.Hours()
	r.set("hit_ratio", res.HitRatio())
	r.set("ok_ratio", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)))
	r.set("lambdaemu.cost_usd_per_hour", (costmodel.LambdaCost(usage)-costmodel.LambdaCost(usage0))/hours)
	if !trace {
		return r, nil
	}

	billed, raw := usage.BilledDuration-usage0.BilledDuration, usage.RawDuration-usage0.RawDuration
	r.set("lambdaemu.invocations_per_hour", float64(usage.Invocations-usage0.Invocations)/hours)
	r.set("lambdaemu.billed_s_per_hour", billed.Seconds()/hours)
	r.set("lambdaemu.billed_over_raw", ratio(billed.Seconds(), raw.Seconds()))
	r.set("lambdaemu.reclaims", p.delta("lambdaemu.reclaims"))
	r.set("lambdaemu.instances_end", float64(platform.InstanceCount("")))
	r.set("proxy.invokes_per_get", ratio(p.delta("proxy.invokes"), float64(res.Gets)))
	r.set("proxy.reinvokes", p.delta("proxy.reinvokes"))
	r.set("proxy.backups_done", p.delta("proxy.backups_done"))
	r.set("proxy.backup_swaps", p.delta("proxy.backup_swaps"))
	r.set("proxy.degraded_gets", p.delta("proxy.degraded_gets"))
	r.set("proxy.chunk_failures", p.delta("proxy.chunk_failures"))
	r.set("client.recoveries", p.delta("client.recoveries"))
	r.set("client.losses", p.delta("client.losses"))
	r.set("replay.hit_p50_ms", quantileMS(res.HitLatency, 0.50))
	r.set("replay.hit_p99_ms", quantileMS(res.HitLatency, 0.99))
	r.set("replay.miss_p50_ms", quantileMS(res.MissLatency, 0.50))
	r.set("replay.resets", float64(res.Resets))
	r.set("replay.inserts", float64(res.Inserts))
	r.set("replay.insert_retries", float64(s.retries.Load()))
	r.set("replay.overrun_ratio", ratio(res.Duration.Seconds(), span.Seconds()))
	r.set("proc.cpu_ms_per_record", ratio((p.snaps[1].cpu-p.snaps[0].cpu)*1e3, float64(res.Records)))
	r.set("proc.peak_rss_mib", peakRSSMiB())
	return r, nil
}
