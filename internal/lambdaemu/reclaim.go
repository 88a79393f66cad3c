package lambdaemu

import (
	"math/rand"
	"slices"
	"strings"
	"time"

	"infinicache/internal/distrib"
	"infinicache/internal/netsim"
)

// ReclaimPolicy models the provider's internal function-reclaiming
// behaviour. Once per (virtual) minute the platform asks the policy how
// many idle instances to reclaim. §4.1 observed three regimes over six
// months; each is a policy below.
type ReclaimPolicy interface {
	// Reclaims returns the number of instances to reclaim during the
	// given minute, out of alive instances whose most recent invocation
	// is idleMin minutes old on average.
	Reclaims(minute int, alive int, rng *rand.Rand) int
	Name() string
}

// SixHourSpike models the Aug/Sep/Nov-2019 regime: AWS reclaimed almost
// the whole fleet roughly every six hours (Figure 8's "9 min (08/21/19)"
// series). Frequently warmed functions were largely spared: the 1-minute
// warm-up series shows the same spikes capped near ~20 functions. The
// platform tells the policy nothing about warm-up frequency, so the
// spike magnitude is configured directly.
type SixHourSpike struct {
	// PeakFraction of the alive fleet reclaimed at each 6-hour mark
	// (≈1.0 for rarely-warmed fleets).
	PeakFraction float64
	// PeakCap bounds the absolute spike size (≈20 for 1-minute warm-up
	// fleets); 0 means uncapped.
	PeakCap int
	// Background is the per-minute Poisson rate between spikes.
	Background float64
	// SpreadMin spreads each spike over this many minutes. 0 means 1:
	// the provider sweep is effectively instantaneous, and the
	// clustered look of Figure 8 comes from the probes observing the
	// deaths over the following warm-up rounds.
	SpreadMin int
}

// Name implements ReclaimPolicy.
func (s SixHourSpike) Name() string { return "six-hour-spike" }

// Reclaims implements ReclaimPolicy.
func (s SixHourSpike) Reclaims(minute int, alive int, rng *rand.Rand) int {
	spread := s.SpreadMin
	if spread <= 0 {
		spread = 1
	}
	const period = 6 * 60
	phase := minute % period
	// Spike window: the `spread` minutes following each 6-hour boundary
	// (skipping minute 0 of the whole run). The fleet shrinks as a spike
	// progresses, so each minute targets a share of what remains.
	if minute >= period && phase < spread {
		want := s.PeakFraction * float64(alive) / float64(spread-phase)
		n := int(want)
		if frac := want - float64(n); frac > 0 && rng.Float64() < frac {
			n++
		}
		if s.PeakCap > 0 {
			capPerMin := (s.PeakCap + spread - 1) / spread
			if n > capPerMin {
				n = capPerMin
			}
		}
		if n > alive {
			n = alive
		}
		return n
	}
	return distrib.Poisson(rng, s.Background)
}

// ZipfPerMinute models the regime where per-minute reclaim counts follow
// a truncated Zipf distribution (Figure 9, Aug/Sep/Nov): most minutes see
// zero reclaims, rare minutes see tens.
type ZipfPerMinute struct {
	S   float64 // Zipf exponent (≈2 fits the published curves)
	Max int     // support bound (≈50 in Figure 9)

	z *distrib.Zipf
}

// NewZipfPerMinute constructs the policy.
func NewZipfPerMinute(s float64, max int) *ZipfPerMinute {
	return &ZipfPerMinute{S: s, Max: max, z: distrib.NewZipf(s, max)}
}

// Name implements ReclaimPolicy.
func (z *ZipfPerMinute) Name() string { return "zipf-per-minute" }

// Reclaims implements ReclaimPolicy.
func (z *ZipfPerMinute) Reclaims(minute int, alive int, rng *rand.Rand) int {
	if z.z == nil {
		z.z = distrib.NewZipf(z.S, z.Max)
	}
	n := z.z.Sample(rng)
	if n > alive {
		n = alive
	}
	return n
}

// PoissonPerMinute models the Oct/Dec/Jan regime: a steady hourly
// reclaim rate (≈36/hour on 12/26/19) i.e. Poisson per-minute counts.
type PoissonPerMinute struct {
	RatePerMinute float64
}

// Name implements ReclaimPolicy.
func (p PoissonPerMinute) Name() string { return "poisson-per-minute" }

// Reclaims implements ReclaimPolicy.
func (p PoissonPerMinute) Reclaims(minute int, alive int, rng *rand.Rand) int {
	n := distrib.Poisson(rng, p.RatePerMinute)
	if n > alive {
		n = alive
	}
	return n
}

// NoReclaim never reclaims; useful for latency-only experiments.
type NoReclaim struct{}

// Name implements ReclaimPolicy.
func (NoReclaim) Name() string { return "none" }

// Reclaims implements ReclaimPolicy.
func (NoReclaim) Reclaims(minute, alive int, rng *rand.Rand) int { return 0 }

// reclaimDaemon wakes every virtual minute, applies the policy to idle
// instances (least-recently-invoked first, the observed AWS preference),
// and additionally reclaims instances idle beyond MaxIdle.
func (p *Platform) reclaimDaemon() {
	defer p.reclaimWG.Done()
	minute := 0
	for {
		select {
		case <-p.stopReclaim:
			return
		case <-p.cfg.Clock.After(time.Minute):
		}
		minute++
		p.ReclaimTick(minute)
	}
}

// ReclaimTick applies one minute of reclaim policy. Exposed so the
// deterministic study harness and simulator can drive it directly.
func (p *Platform) ReclaimTick(minute int) int {
	idle := p.idleInstances()
	p.mu.Lock()
	rng := p.rng
	policy := p.cfg.ReclaimPolicy
	p.mu.Unlock()
	if policy == nil {
		return 0
	}
	n := policy.Reclaims(minute, len(idle), rng)
	reclaimedCount := 0
	// Policy-driven reclaiming hits the least-recently invoked first.
	for i := 0; i < n && i < len(idle); i++ {
		if p.reclaimInstance(idle[i], "policy") {
			reclaimedCount++
		}
	}
	// Idle-expiry reclaiming (the ~27-minute lifetime without warm-ups).
	now := p.cfg.Clock.Now()
	for _, in := range idle[min(n, len(idle)):] {
		in.fn.mu.Lock()
		expired := now.Sub(in.lastInvoke) > DefaultMaxIdle && !in.busy && !in.reclaimed
		in.fn.mu.Unlock()
		if expired && p.reclaimInstance(in, "idle") {
			reclaimedCount++
		}
	}
	return reclaimedCount
}

// idleInstances returns idle alive instances ordered least-recently
// invoked first.
func (p *Platform) idleInstances() []*Instance {
	p.mu.Lock()
	fns := make([]*Function, 0, len(p.fns))
	for _, fn := range p.fns {
		fns = append(fns, fn)
	}
	p.mu.Unlock()
	var out []*Instance
	for _, fn := range fns {
		fn.mu.Lock()
		for _, in := range fn.instances {
			if !in.busy && !in.reclaimed {
				out = append(out, in)
			}
		}
		fn.mu.Unlock()
	}
	slices.SortStableFunc(out, func(a, b *Instance) int { return a.lastInvoke.Compare(b.lastInvoke) })
	return out
}

// reclaimInstance kills one instance: state dropped, outbound connections
// severed, done channel closed. Returns false if it was already gone.
func (p *Platform) reclaimInstance(in *Instance, reason string) bool {
	in.fn.mu.Lock()
	if in.reclaimed {
		in.fn.mu.Unlock()
		return false
	}
	in.reclaimed = true
	// Remove from the function's instance list.
	insts := in.fn.instances
	for i, cand := range insts {
		if cand == in {
			in.fn.instances = append(insts[:i], insts[i+1:]...)
			break
		}
	}
	in.fn.mu.Unlock()

	// Dropping the instance from all lists releases its locals (the
	// cached state) to the collector; the map itself must not be touched
	// here because a handler may still be draining its Done signal.
	in.signalDone()
	in.closeConns()

	p.mu.Lock()
	in.host.freeMB += in.fn.cfg.MemoryMB
	in.host.count--
	p.reclaimLog = append(p.reclaimLog, ReclaimEvent{
		Time:     p.cfg.Clock.Now(),
		Function: in.fn.name,
		Instance: in.id,
		Reason:   reason,
	})
	p.mu.Unlock()
	return true
}

// ForceReclaimMatching reclaims up to n instances across every function
// whose name matches pattern (netsim.MatchTag syntax: an exact name,
// trailing '*' prefix, or "*"), in name order and oldest first within a
// function, mirroring the provider's bias against stale instances; n < 0
// means all. It returns the number reclaimed. It is the one forced
// reclaim: the chaos plane drives storms across a node pool with it, and
// tests and examples kill one function's instances by its exact name.
func (p *Platform) ForceReclaimMatching(pattern string, n int) int {
	p.mu.Lock()
	var fns []*Function
	for name, fn := range p.fns {
		if netsim.MatchTag(pattern, name) {
			fns = append(fns, fn)
		}
	}
	p.mu.Unlock()
	// Stable order so a fixed seed reclaims the same instances.
	slices.SortFunc(fns, func(a, b *Function) int { return strings.Compare(a.name, b.name) })
	count := 0
	for _, fn := range fns {
		fn.mu.Lock()
		insts := append([]*Instance(nil), fn.instances...)
		fn.mu.Unlock()
		slices.SortStableFunc(insts, func(a, b *Instance) int { return a.born.Compare(b.born) })
		for _, in := range insts {
			if n >= 0 && count >= n {
				return count
			}
			if p.reclaimInstance(in, "forced") {
				count++
			}
		}
	}
	return count
}
