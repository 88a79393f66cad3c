package sim

import (
	"testing"
	"time"

	"infinicache/internal/lambdaemu"
	"infinicache/internal/workload"
)

// testTrace is a 10-hour Dallas-like trace (fast enough for unit tests;
// the cmd/ic-repro harness replays the full 50 hours).
func testTrace(t testing.TB) *workload.Trace {
	t.Helper()
	return workload.Generate(workload.Config{
		Duration: 10 * time.Hour,
		Seed:     1,
	})
}

func paperConfig(backup time.Duration) Config {
	return Config{
		Nodes:          400,
		NodeMemoryMB:   1536,
		DataShards:     10,
		ParityShards:   2,
		WarmupInterval: time.Minute,
		BackupInterval: backup,
		ReclaimPolicy:  lambdaemu.NewZipfPerMinute(2.5, 30),
		Seed:           3,
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(t)
	a := Run(paperConfig(5*time.Minute), tr)
	b := Run(paperConfig(5*time.Minute), tr)
	if a.Hits != b.Hits || a.Resets != b.Resets || a.TotalCost() != b.TotalCost() {
		t.Fatal("simulation not deterministic for equal seeds")
	}
}

func TestWarmupZeroDisables(t *testing.T) {
	cfg := paperConfig(5 * time.Minute)
	cfg.WarmupInterval = 0
	if r := Run(cfg, testTrace(t)); r.WarmupCost != 0 {
		t.Fatalf("WarmupInterval 0 billed $%.4f of warm-up, want 0", r.WarmupCost)
	}
}

func TestAccountingConsistency(t *testing.T) {
	tr := testTrace(t)
	r := Run(paperConfig(5*time.Minute), tr)
	if r.Gets != r.Hits+r.ColdMisses+r.Resets {
		t.Fatalf("gets %d != hits %d + cold %d + resets %d",
			r.Gets, r.Hits, r.ColdMisses, r.Resets)
	}
	if r.Gets != len(tr.Records) {
		t.Fatalf("gets %d != trace records %d", r.Gets, len(tr.Records))
	}
	if len(r.LatencySeconds) != r.Gets || len(r.Sizes) != r.Gets {
		t.Fatal("latency/size sample counts mismatch")
	}
	// Hour buckets must sum to the totals.
	var gets, hits, resets int
	var cost float64
	for _, h := range r.Hours {
		gets += h.Gets
		hits += h.Hits
		resets += h.Resets
		cost += h.TotalCost()
	}
	if gets != r.Gets || hits != r.Hits || resets != r.Resets {
		t.Fatal("hour buckets do not sum to totals")
	}
	if diff := cost - r.TotalCost(); diff < -0.01 || diff > 0.01 {
		t.Fatalf("hourly costs sum to %.4f, total %.4f", cost, r.TotalCost())
	}
}

func TestNoReclaimsNoResets(t *testing.T) {
	cfg := paperConfig(5 * time.Minute)
	cfg.ReclaimPolicy = nil
	r := Run(cfg, testTrace(t))
	if r.Resets != 0 || r.Recoveries != 0 || r.Reclaims != 0 {
		t.Fatalf("stable platform produced resets=%d recoveries=%d reclaims=%d",
			r.Resets, r.Recoveries, r.Reclaims)
	}
	if r.HitRatio() < 0.5 {
		t.Fatalf("hit ratio %.3f too low without failures", r.HitRatio())
	}
}

func TestBackupReducesResets(t *testing.T) {
	tr := testTrace(t)
	withBak := Run(paperConfig(5*time.Minute), tr)
	noBak := Run(paperConfig(0), tr)
	if noBak.Resets <= withBak.Resets {
		t.Fatalf("backup should reduce RESETs: with=%d without=%d",
			withBak.Resets, noBak.Resets)
	}
	if noBak.HitRatio() >= withBak.HitRatio() {
		t.Fatalf("backup should improve hit ratio: with=%.3f without=%.3f",
			withBak.HitRatio(), noBak.HitRatio())
	}
	if noBak.BackupCost != 0 {
		t.Fatal("disabled backup still billed")
	}
	if withBak.BackupCost <= 0 {
		t.Fatal("enabled backup billed nothing")
	}
}

func TestTable1Shape(t *testing.T) {
	// The Table 1 orderings: EC hit >= IC hit > IC-no-backup hit, with
	// EC-IC gap modest (paper: 67.9 vs 64.7 vs 56.1).
	tr := testTrace(t)
	large := tr.LargeOnly()
	ec := RunElastiCache("cache.r5.24xlarge", large, 2)
	ic := Run(paperConfig(5*time.Minute), large)
	noBak := Run(paperConfig(0), large)
	if !(ec.HitRatio() >= ic.HitRatio() && ic.HitRatio() > noBak.HitRatio()) {
		t.Fatalf("hit ordering violated: EC=%.3f IC=%.3f IC-nobak=%.3f",
			ec.HitRatio(), ic.HitRatio(), noBak.HitRatio())
	}
	if gap := ec.HitRatio() - ic.HitRatio(); gap > 0.20 {
		t.Errorf("EC-IC hit gap %.3f too wide (paper: ~0.032)", gap)
	}
}

func TestFigure13CostShape(t *testing.T) {
	tr := testTrace(t)
	ec := RunElastiCache("cache.r5.24xlarge", tr, 2)
	ic := Run(paperConfig(5*time.Minute), tr)
	// Paper: 31x cheaper over 50 hours; on any window the ratio should
	// stay within the same order of magnitude.
	ratio := ec.TotalCost / ic.TotalCost()
	if ratio < 10 || ratio > 120 {
		t.Fatalf("cost effectiveness %.1fx; paper reports 31-96x", ratio)
	}
	// Backup + warm-up dominate for the large-only workload (~88.3%).
	large := tr.LargeOnly()
	icL := Run(paperConfig(5*time.Minute), large)
	share := (icL.BackupCost + icL.WarmupCost) / icL.TotalCost()
	if share < 0.6 || share > 0.98 {
		t.Errorf("backup+warmup share = %.3f, paper ~0.883", share)
	}
}

func TestFigure15LatencyOrdering(t *testing.T) {
	tr := testTrace(t)
	ic := Run(paperConfig(5*time.Minute), tr)
	s3 := RunS3(tr, 5)
	// Median IC latency must be far below S3's for large objects.
	icMed := medianFor(ic.Sizes, ic.LatencySeconds, workload.LargeObjectThreshold)
	s3Med := medianFor(s3.Sizes, s3.LatencySeconds, workload.LargeObjectThreshold)
	if s3Med < 20*icMed {
		t.Fatalf("S3 median %.3fs vs IC %.3fs: want >20x gap (paper: >=100x for 60%%)", s3Med, icMed)
	}
}

func medianFor(sizes []int64, lat []float64, minSize int64) float64 {
	var xs []float64
	for i, s := range sizes {
		if s >= minSize {
			xs = append(xs, lat[i])
		}
	}
	return median(xs)
}

func TestFigure16BucketShape(t *testing.T) {
	tr := testTrace(t)
	ic := Run(paperConfig(5*time.Minute), tr)
	ec := RunElastiCache("cache.r5.24xlarge", tr, 2)
	icB := NormalizedBySize(ic.Sizes, ic.LatencySeconds)
	ecB := NormalizedBySize(ec.Sizes, ec.LatencySeconds)
	// <1MB: IC pays the invoke overhead, so it is much slower than EC.
	if icB["<1MB"] < 3*ecB["<1MB"] {
		t.Errorf("small objects: IC %.5fs vs EC %.5fs; paper shows IC >> EC", icB["<1MB"], ecB["<1MB"])
	}
	// >=100MB: IC's chunk parallelism beats the single-threaded EC.
	if icB[">=100MB"] > ecB[">=100MB"] {
		t.Errorf("huge objects: IC %.4fs vs EC %.4fs; paper shows IC < EC", icB[">=100MB"], ecB[">=100MB"])
	}
}

func TestElastiCacheBaselineBasics(t *testing.T) {
	tr := testTrace(t)
	ec := RunElastiCache("cache.r5.24xlarge", tr, 2)
	if ec.Gets != len(tr.Records) {
		t.Fatal("gets mismatch")
	}
	if ec.Hits+ec.Misses != ec.Gets {
		t.Fatal("hit+miss != gets")
	}
	if ec.HitRatio() < 0.3 || ec.HitRatio() > 0.98 {
		t.Fatalf("EC hit ratio %.3f implausible", ec.HitRatio())
	}
	// Hourly pricing: cost = hours * $10.368.
	wantCost := float64(len(ec.HourlyCost)) * 10.368
	if diff := ec.TotalCost - wantCost; diff < -0.001 || diff > 0.001 {
		t.Fatalf("EC cost %.3f, want %.3f", ec.TotalCost, wantCost)
	}
}

func TestS3BaselineLatencyScalesWithSize(t *testing.T) {
	tr := testTrace(t)
	s3 := RunS3(tr, 3)
	small := medianFor(s3.Sizes, s3.LatencySeconds, 0)
	large := medianFor(s3.Sizes, s3.LatencySeconds, 100<<20)
	if large < 5*small {
		t.Fatalf("S3 large median %.3f vs overall %.3f: want strong size dependence", large, small)
	}
}

func TestNormalizedBySizeBuckets(t *testing.T) {
	sizes := []int64{100, 5 << 20, 50 << 20, 500 << 20}
	lat := []float64{1, 2, 3, 4}
	got := NormalizedBySize(sizes, lat)
	want := map[string]float64{"<1MB": 1, "[1,10)MB": 2, "[10,100)MB": 3, ">=100MB": 4}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("bucket %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestCorrelatedWipesIncreaseResets(t *testing.T) {
	tr := testTrace(t).LargeOnly()
	low := paperConfig(5 * time.Minute)
	low.CorrelatedWipeProb = 0.01
	high := paperConfig(5 * time.Minute)
	high.CorrelatedWipeProb = 0.9
	rLow := Run(low, tr)
	rHigh := Run(high, tr)
	if rHigh.Resets <= rLow.Resets {
		t.Fatalf("correlated wipes should cost data: low=%d high=%d", rLow.Resets, rHigh.Resets)
	}
}

func BenchmarkReplay10Hours(b *testing.B) {
	tr := testTrace(b)
	cfg := paperConfig(5 * time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, tr)
	}
}
