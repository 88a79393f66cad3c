// Package replay is the open-loop trace-replay harness behind
// cmd/ic-replay: it schedules trace records on their own timestamps
// against a virtual clock, fans the requests across a bounded pool of
// concurrent client sessions, and records per-operation latency,
// outcome, and cost.
//
// Open loop means arrivals never wait for slow responses: the
// dispatcher sleeps until each record's scheduled instant and enqueues
// it regardless of how many earlier requests are still in flight, and
// latency is measured from the scheduled arrival — queueing delay from
// an overloaded backend shows up in the percentiles instead of
// silently stretching the run (the methodology behind the paper's
// Figure 11/13 latency and cost figures).
//
// Backends plug in behind the Backend interface: the public InfiniCache
// client API, the internal/rediscache ElastiCache model, and a no-op
// dummy that measures harness overhead and anchors engine tests. The
// same trace replayed through internal/sim and through this engine
// against an in-process lambdaemu deployment must agree on hit ratio
// and serving cost — crosscheck_test.go pins that contract.
package replay

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"infinicache/internal/cluster"
	"infinicache/internal/stats"
	"infinicache/internal/vclock"
	"infinicache/internal/workload"
)

// Config tunes one replay run.
type Config struct {
	// Clock paces arrivals and measures latency (default: wall clock).
	// Pass the deployment's own clock so scheduling and backend timers
	// share one timeline, or a *vclock.Manual for deterministic tests.
	Clock vclock.Clock
	// Speedup divides trace inter-arrival times: 2 replays twice as
	// fast as recorded, 0 takes the default of 1 (real-time pacing),
	// and any negative value disables pacing entirely — records
	// dispatch back-to-back as fast as the sessions drain them.
	Speedup float64
	// Sessions bounds the concurrent client sessions (default 8).
	Sessions int
	// Batch >= 2 lets a session opportunistically drain up to Batch-1
	// additional already-due GETs from the queue and serve the group
	// with one MGet burst, when the backend implements BatchBackend.
	Batch int
	// SizeCap clamps object sizes (production traces carry multi-GB
	// blobs a small emulated pool cannot hold). 0 = no cap.
	SizeCap int64
	// NoInsertOnMiss disables the §5.2 Docker-registry semantics where
	// a GET miss (or RESET) triggers insertion of the object.
	NoInsertOnMiss bool
	// SessionBackends, when non-empty, spreads the session workers
	// round-robin across several backend instances (worker i uses
	// SessionBackends[i%len]) — e.g. one InfiniCache client per group
	// of sessions so replay exercises many independent client views of
	// the ring. Results aggregate across all of them; the primary
	// backend passed to Run still provides Cost and ReportLines, and
	// is only used to serve requests when this slice is empty.
	SessionBackends []Backend
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.Speedup == 0 {
		c.Speedup = 1
	}
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
}

// HourStat aggregates outcomes per trace hour.
type HourStat struct {
	Gets, Hits, Misses, Resets, Puts, Errors int
}

// Result is the outcome of one replay run.
type Result struct {
	Records int // trace records dispatched
	Gets    int
	Hits    int
	Misses  int
	Resets  int // ErrLost outcomes (lost object, refetched)
	Puts    int // trace PUTs (not miss-triggered inserts)
	Inserts int // miss/RESET-triggered insertions
	Errors  int

	// BytesServed sums the object sizes of hit GETs.
	BytesServed int64

	// Latencies in seconds, measured on the replay clock from each
	// record's scheduled open-loop arrival (queueing included).
	HitLatency  []float64
	MissLatency []float64
	PutLatency  []float64

	// Hours buckets outcomes by trace-time hour.
	Hours []HourStat

	// Duration is the virtual makespan (first dispatch to last
	// completion); TraceHours is the trace's own span.
	Duration   time.Duration
	TraceHours float64

	// Cost is the backend-reported dollars for the run (CostKnown
	// false when the backend has no cost model).
	Cost      float64
	CostKnown bool

	// BackendLines carries backend-specific summary lines.
	BackendLines []string

	// ErrSamples holds the first few distinct error strings behind
	// Errors, so a nonzero count is diagnosable from the report alone.
	ErrSamples []string
}

// HitRatio is hits / gets.
func (r *Result) HitRatio() float64 {
	if r.Gets == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Gets)
}

type job struct {
	rec       workload.Record
	scheduled time.Time
}

// Run replays the trace against the backend. The context cancels
// dispatch between arrivals; in-flight operations still complete.
func Run(ctx context.Context, cfg Config, tr *workload.Trace, b Backend) (*Result, error) {
	if b == nil {
		return nil, errors.New("replay: nil backend")
	}
	cfg.fillDefaults()
	clk := cfg.Clock

	recs := append([]workload.Record(nil), tr.Records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })

	hours := 1
	if n := len(recs); n > 0 {
		hours = int(recs[n-1].Time.Hours()) + 1
	}
	res := &Result{Records: len(recs), Hours: make([]HourStat, hours)}
	if n := len(recs); n > 0 {
		res.TraceHours = recs[n-1].Time.Hours()
	}

	for i, sb := range cfg.SessionBackends {
		if sb == nil {
			return nil, fmt.Errorf("replay: nil session backend at index %d", i)
		}
	}

	var mu sync.Mutex
	e := &engine{cfg: cfg, clk: clk, mu: &mu, res: res, inserting: cluster.NewPlane(0)}

	jobs := make(chan job, len(recs))
	e.jobs = jobs
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wb := b
		if len(cfg.SessionBackends) > 0 {
			wb = cfg.SessionBackends[i%len(cfg.SessionBackends)]
		}
		s := &session{engine: e, b: wb}
		if batcher, ok := wb.(BatchBackend); ok && cfg.Batch >= 2 {
			s.batcher = batcher
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s.process(ctx, j)
			}
		}()
	}

	start := clk.Now()
	var dispatchErr error
	for _, rec := range recs {
		if err := ctx.Err(); err != nil {
			dispatchErr = err
			break
		}
		sched := clk.Now()
		if cfg.Speedup > 0 {
			target := start.Add(time.Duration(float64(rec.Time) / cfg.Speedup))
			if d := target.Sub(sched); d > 0 {
				select {
				case <-clk.After(d):
				case <-ctx.Done():
					dispatchErr = ctx.Err()
				}
			}
			if dispatchErr != nil {
				break
			}
			sched = target
		}
		jobs <- job{rec: rec, scheduled: sched}
	}
	close(jobs)
	wg.Wait()
	res.Duration = clk.Since(start)

	if c, ok := b.(Coster); ok {
		res.Cost, res.CostKnown = c.Cost()
	}
	if r, ok := b.(Reporter); ok {
		res.BackendLines = r.ReportLines()
	}
	return res, dispatchErr
}

// engine is the per-run state shared by the session goroutines.
type engine struct {
	cfg  Config
	clk  vclock.Clock
	jobs chan job
	mu   *sync.Mutex
	res  *Result
	// inserting single-flights miss-triggered insertions per key, the
	// way a registry frontend coalesces concurrent backfills: when two
	// sessions miss the same object at once, only one re-inserts (even
	// when the sessions run against different SessionBackends clients —
	// the backfill suppression is keyed on the object, not the client).
	inserting *cluster.Plane
}

// session is one worker goroutine's view of the run: the shared engine
// plus the backend (and optional batcher) this worker drives. With
// Config.SessionBackends the backends differ per worker; otherwise
// every session shares the primary backend.
type session struct {
	*engine
	b       Backend
	batcher BatchBackend
}

func (e *engine) size(rec workload.Record) int64 {
	if e.cfg.SizeCap > 0 && rec.Size > e.cfg.SizeCap {
		return e.cfg.SizeCap
	}
	return rec.Size
}

func (e *engine) hour(rec workload.Record) *HourStat {
	h := int(rec.Time.Hours())
	if h >= len(e.res.Hours) {
		h = len(e.res.Hours) - 1
	}
	return &e.res.Hours[h]
}

func (e *session) process(ctx context.Context, j job) {
	if j.rec.Op == workload.OpPut {
		err := e.b.Put(ctx, j.rec.Key, e.size(j.rec))
		lat := e.clk.Since(j.scheduled).Seconds()
		e.mu.Lock()
		e.res.Puts++
		e.hour(j.rec).Puts++
		if err != nil {
			e.res.Errors++
			e.hour(j.rec).Errors++
		} else {
			e.res.PutLatency = append(e.res.PutLatency, lat)
		}
		e.mu.Unlock()
		return
	}

	if e.batcher != nil {
		if batch := e.drain(j); len(batch) > 1 {
			e.processBatch(ctx, batch)
			return
		}
	}
	hit, err := e.b.Get(ctx, j.rec.Key)
	lat := e.clk.Since(j.scheduled).Seconds()
	e.finishGet(ctx, j, hit, err, lat)
}

// drain opportunistically pulls further already-queued GETs to batch
// with j; a dequeued PUT ends the batch and is processed afterwards.
func (e *session) drain(j job) []job {
	batch := []job{j}
	for len(batch) < e.cfg.Batch {
		select {
		case next, ok := <-e.jobs:
			if !ok {
				return batch
			}
			batch = append(batch, next)
			if next.rec.Op == workload.OpPut {
				return batch
			}
		default:
			return batch
		}
	}
	return batch
}

func (e *session) processBatch(ctx context.Context, batch []job) {
	gets := batch
	var tail []job
	if last := batch[len(batch)-1]; last.rec.Op == workload.OpPut {
		gets, tail = batch[:len(batch)-1], batch[len(batch)-1:]
	}
	keys := make([]string, len(gets))
	for i, g := range gets {
		keys[i] = g.rec.Key
	}
	statuses := e.batcher.MGet(ctx, keys)
	now := e.clk.Now()
	for i, g := range gets {
		st := GetStatus{}
		if i < len(statuses) {
			st = statuses[i]
		}
		hit := st.Hit && st.Err == nil
		var err error
		if st.Err != nil {
			err = st.Err
		}
		e.finishGet(ctx, g, hit, err, now.Sub(g.scheduled).Seconds())
	}
	for _, t := range tail {
		e.process(ctx, t)
	}
}

// finishGet classifies one GET outcome and performs the GET-upon-miss
// insertion. The recorded latency covers the fetch only (the sim's
// convention: a miss is billed its backing-store latency; the insert
// happens off the request path).
func (e *session) finishGet(ctx context.Context, j job, hit bool, err error, lat float64) {
	insert := false
	e.mu.Lock()
	e.res.Gets++
	h := e.hour(j.rec)
	h.Gets++
	switch {
	case err == nil && hit:
		e.res.Hits++
		h.Hits++
		e.res.BytesServed += e.size(j.rec)
		e.res.HitLatency = append(e.res.HitLatency, lat)
	case err == nil:
		e.res.Misses++
		h.Misses++
		e.res.MissLatency = append(e.res.MissLatency, lat)
		insert = !e.cfg.NoInsertOnMiss && e.inserting.TryStart(j.rec.Key)
	case errors.Is(err, ErrLost):
		e.res.Resets++
		h.Resets++
		e.res.MissLatency = append(e.res.MissLatency, lat)
		insert = !e.cfg.NoInsertOnMiss && e.inserting.TryStart(j.rec.Key)
	default:
		e.res.Errors++
		h.Errors++
		e.sampleErr(err)
	}
	e.mu.Unlock()

	if insert {
		insErr := e.b.Put(ctx, j.rec.Key, e.size(j.rec))
		e.mu.Lock()
		e.inserting.Finish(j.rec.Key, false)
		e.res.Inserts++
		if insErr != nil {
			e.res.Errors++
			e.hour(j.rec).Errors++
			e.sampleErr(insErr)
		}
		e.mu.Unlock()
	}
}

// sampleErr keeps the first few distinct error strings for the report;
// callers hold e.mu.
func (e *engine) sampleErr(err error) {
	if err == nil || len(e.res.ErrSamples) >= 8 {
		return
	}
	s := err.Error()
	for _, prev := range e.res.ErrSamples {
		if prev == s {
			return
		}
	}
	e.res.ErrSamples = append(e.res.ErrSamples, s)
}

// Summary renders the Figure 11/13-style report: outcome counts, hit
// ratio, latency percentiles per outcome class, and cost.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d records in %s virtual time\n", r.Records, r.Duration.Round(time.Millisecond))
	fmt.Fprintf(&b, "GETs %d: %d hits (%.1f%%), %d misses, %d RESETs; PUTs %d; inserts %d; errors %d\n",
		r.Gets, r.Hits, 100*r.HitRatio(), r.Misses, r.Resets, r.Puts, r.Inserts, r.Errors)
	if r.BytesServed > 0 {
		fmt.Fprintf(&b, "bytes served from cache: %.1f MB\n", float64(r.BytesServed)/(1<<20))
	}
	for _, s := range r.ErrSamples {
		fmt.Fprintf(&b, "error sample: %s\n", s)
	}

	rows := [][]string{}
	row := func(name string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		s := stats.Summarize(xs)
		ms := func(v float64) string { return fmt.Sprintf("%.2f", v*1e3) }
		rows = append(rows, []string{name, fmt.Sprintf("%d", s.N),
			ms(s.P50), ms(s.P90), ms(s.P99), ms(s.Max)})
	}
	row("GET hit", r.HitLatency)
	row("GET miss", r.MissLatency)
	row("PUT", r.PutLatency)
	if len(rows) > 0 {
		b.WriteString("\nlatency from scheduled arrival (ms):\n")
		b.WriteString(stats.Table([]string{"op", "n", "p50", "p90", "p99", "max"}, rows))
	}

	if r.CostKnown {
		perHour := r.Cost
		if r.TraceHours > 1 {
			perHour = r.Cost / r.TraceHours
		}
		fmt.Fprintf(&b, "\ncost: $%.4g total, $%.4g per trace hour\n", r.Cost, perHour)
	} else {
		b.WriteString("\ncost: n/a (backend has no cost model)\n")
	}
	for _, line := range r.BackendLines {
		fmt.Fprintf(&b, "%s\n", line)
	}
	return b.String()
}
