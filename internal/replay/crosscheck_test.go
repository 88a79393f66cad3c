package replay

import (
	"context"
	"math"
	"testing"
	"time"

	"infinicache"
	"infinicache/internal/sim"
	"infinicache/internal/workload"
)

// The cross-check contract: the same trace replayed through the
// analytical simulator (internal/sim) and through this engine against a
// real in-process deployment (lambdaemu + proxy + client) must agree on
// hit ratio, hot-tier behaviour, and serving cost. The two
// implementations share the hot-tier policy object (clockcache.Tier)
// and nothing else on those paths — the simulator is closed-form
// accounting, the deployment actually moves chunks over an emulated
// wire — so agreement pins both against each other (and pins how each
// side drives the policy), and the no-hot-model control proves the
// comparison has teeth.

// crossCheckTrace: nKeys objects read reps times each, round-robin,
// arrivals spaced wider than one 100ms Lambda billing cycle so the
// live ledger bills each chunk operation in its own cycle (the regime
// where the sim's per-event ceil-to-100ms accounting matches billing
// exactly).
func crossCheckTrace(nKeys, reps int, size int64) *workload.Trace {
	const spacing = 1200 * time.Millisecond
	tr := &workload.Trace{}
	i := 0
	for rep := 0; rep < reps; rep++ {
		for k := 0; k < nKeys; k++ {
			tr.Records = append(tr.Records, workload.Record{
				Time: time.Duration(i) * spacing,
				Op:   workload.OpGet,
				Key:  "obj-" + string(rune('a'+k)),
				Size: size,
			})
			i++
		}
	}
	return tr
}

func withinFactor(a, b, factor float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	r := a / b
	return r <= factor && r >= 1/factor
}

func TestSimReplayCrossCheck(t *testing.T) {
	const (
		nKeys    = 6
		reps     = 4
		objSize  = 96 << 10
		nodes    = 8
		nodeMB   = 256
		dShards  = 4
		pShards  = 2
		hotBytes = 64 << 20
		seed     = 42
		// costTolerance bounds the live/sim serving-cost ratio. The sim
		// charges per-chunk invocations at ceil-100ms; the live ledger
		// additionally sees deployment bring-up and scheduling jitter,
		// so the bound is loose — but far tighter than the ~5x gap the
		// disabled-hot-model control must exceed.
		costTolerance = 2.0
	)
	tr := crossCheckTrace(nKeys, reps, objSize)

	// --- Simulator side, hot model on.
	simCfg := sim.Config{
		Nodes:             nodes,
		NodeMemoryMB:      nodeMB,
		DataShards:        dShards,
		ParityShards:      pShards,
		BackupInterval:    0, // disabled
		HotTierBytes:      hotBytes,
		HotMaxObjectBytes: 1 << 20,
		Seed:              seed,
	}
	simRes := sim.Run(simCfg, tr)

	// --- Live side: a real deployment on a pumped manual clock,
	// configured to match (no warm-ups, no backups, no reclaim).
	clk := pumpedManual(t)
	cache, err := infinicache.New(
		infinicache.WithClock(clk),
		infinicache.WithNodesPerProxy(nodes),
		infinicache.WithNodeMemoryMB(nodeMB),
		infinicache.WithShards(dShards, pShards),
		infinicache.WithWarmupInterval(-1),
		infinicache.WithBackupInterval(-1),
		infinicache.WithHotTier(hotBytes),
		infinicache.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	backend, err := NewInfiniCache(cache)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.Close() })

	liveRes, err := Run(context.Background(),
		Config{Clock: clk, Speedup: 1, Sessions: 1}, tr, backend)
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.Errors != 0 {
		t.Fatalf("live replay had %d errors (serial replay must be clean):\n%s",
			liveRes.Errors, liveRes.Summary())
	}

	// Hit ratio: first touch per key misses (and triggers the §5.2
	// insert), every later touch hits. Both sides must land on the
	// same closed-form value.
	wantHR := float64(nKeys*(reps-1)) / float64(nKeys*reps)
	if got := simRes.HitRatio(); math.Abs(got-wantHR) > 0.01 {
		t.Fatalf("sim hit ratio = %.3f, want %.3f", got, wantHR)
	}
	if got := liveRes.HitRatio(); math.Abs(got-wantHR) > 0.01 {
		t.Fatalf("live hit ratio = %.3f, want %.3f\n%s", got, wantHR, liveRes.Summary())
	}

	// Hot-tier behaviour: the miss registers the key in the ghost
	// filter, so the miss-triggered insert admits immediately and every
	// subsequent read is a hot hit — reps-1 per key, on both sides.
	wantHot := nKeys * (reps - 1)
	if simRes.HotHits != wantHot {
		t.Fatalf("sim HotHits = %d, want %d", simRes.HotHits, wantHot)
	}
	var liveHot int64
	for _, p := range cache.Deployment().Proxies {
		liveHot += p.Stats().HotHits.Load()
	}
	if int(liveHot) != wantHot {
		t.Fatalf("live proxy HotHits = %d, want %d", liveHot, wantHot)
	}

	// Cost: the live number comes off the platform billing ledger, the
	// sim number from its analytical accounting. With the hot tier on,
	// both reduce to the insert fan-out (hot hits invoke no Lambdas).
	if !liveRes.CostKnown || liveRes.Cost <= 0 {
		t.Fatalf("live replay reported no cost (known=%v cost=%v)", liveRes.CostKnown, liveRes.Cost)
	}
	if !withinFactor(simRes.ServingCost, liveRes.Cost, costTolerance) {
		t.Fatalf("sim serving cost $%.6f vs live ledger cost $%.6f: outside %.1fx tolerance",
			simRes.ServingCost, liveRes.Cost, costTolerance)
	}

	// Control: with the sim's hot model disabled, every repeat read
	// fans out to d+p Lambdas and the sim cost must blow past the
	// tolerance — if this stops failing, the cross-check has gone soft
	// (e.g. the live path quietly stopped using the tier).
	noHotCfg := simCfg
	noHotCfg.HotTierBytes = 0
	noHotCfg.HotMaxObjectBytes = 0
	noHotRes := sim.Run(noHotCfg, tr)
	if noHotRes.HotHits != 0 {
		t.Fatalf("control sim reported %d hot hits with the model disabled", noHotRes.HotHits)
	}
	if withinFactor(noHotRes.ServingCost, liveRes.Cost, costTolerance) {
		t.Fatalf("hot-model-disabled sim cost $%.6f agrees with live $%.6f within %.1fx — "+
			"the cross-check lost its sensitivity to the hot tier",
			noHotRes.ServingCost, liveRes.Cost, costTolerance)
	}
}
