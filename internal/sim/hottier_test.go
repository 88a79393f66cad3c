package sim

import (
	"fmt"
	"testing"
	"time"

	"infinicache/internal/workload"
)

// hotTestTrace builds a GET-only trace of nKeys small keys accessed
// reps times each, plus one large (above-maxObj) key accessed reps
// times, mirroring the live hottier_test.go access pattern: the miss
// path inserts (GET-upon-miss, §5.2), so the first access ghost-warms
// the key and its insert admits it; every later access must be a hot
// hit.
func hotTestTrace(nKeys, reps int, smallSize, largeSize int64) *workload.Trace {
	t := &workload.Trace{Objects: make(map[string]int64)}
	at := time.Duration(0)
	add := func(key string, size int64) {
		t.Records = append(t.Records, workload.Record{Time: at, Op: workload.OpGet, Key: key, Size: size})
		t.Objects[key] = size
		at += 3 * time.Second
	}
	for r := 0; r < reps; r++ {
		for k := 0; k < nKeys; k++ {
			add(fmt.Sprintf("small-%d", k), smallSize)
		}
		add("large-0", largeSize)
	}
	return t
}

func hotTestConfig(hotBytes int64) Config {
	return Config{
		Nodes:          8,
		NodeMemoryMB:   256,
		DataShards:     2,
		ParityShards:   1,
		BackupInterval: 0,
		ReclaimPolicy:  nil, // stable platform: every charge is serving
		HotTierBytes:   hotBytes,
		Seed:           11,
	}
}

func TestHotTierModelServesRepeatsForFree(t *testing.T) {
	const nKeys, reps = 4, 6
	tr := hotTestTrace(nKeys, reps, 64<<10, 4<<20)
	r := Run(hotTestConfig(32<<20), tr)

	// Every small key: 1 cold miss then reps-1 hot hits. The large key
	// exceeds maxObj (1 MiB default) so it never enters the tier: 1
	// cold miss then reps-1 pool hits.
	wantHot := nKeys * (reps - 1)
	if r.HotHits != wantHot {
		t.Fatalf("hot hits = %d, want %d", r.HotHits, wantHot)
	}
	if r.ColdMisses != nKeys+1 {
		t.Fatalf("cold misses = %d, want %d", r.ColdMisses, nKeys+1)
	}
	if r.Gets != r.Hits+r.ColdMisses+r.Resets {
		t.Fatalf("accounting broken: gets %d hits %d cold %d resets %d",
			r.Gets, r.Hits, r.ColdMisses, r.Resets)
	}
	var bucketHot int
	for _, h := range r.Hours {
		bucketHot += h.HotHits
	}
	if bucketHot != r.HotHits {
		t.Fatalf("hour buckets sum to %d hot hits, total %d", bucketHot, r.HotHits)
	}

	// Zero chunk fan-out charges for hot hits: the run must cost
	// exactly what the same trace costs once the repeats of hot-served
	// keys are removed (inserts plus the large key's pool traffic).
	var once workload.Trace
	once.Objects = tr.Objects
	seen := map[string]int{}
	for _, rec := range tr.Records {
		seen[rec.Key]++
		if rec.Key == "large-0" || seen[rec.Key] == 1 {
			once.Records = append(once.Records, rec)
		}
	}
	ref := Run(hotTestConfig(32<<20), &once)
	if r.ServingCost != ref.ServingCost {
		t.Fatalf("hot hits were charged: full trace serving cost %.9f, first-touch-only %.9f",
			r.ServingCost, ref.ServingCost)
	}
}

func TestHotTierModelDisabledChargesFanOut(t *testing.T) {
	tr := hotTestTrace(4, 6, 64<<10, 4<<20)
	hot := Run(hotTestConfig(32<<20), tr)
	cold := Run(hotTestConfig(0), tr)
	if cold.HotHits != 0 {
		t.Fatalf("disabled tier recorded %d hot hits", cold.HotHits)
	}
	if cold.HitRatio() != hot.HitRatio() {
		t.Fatalf("hot tier changed the hit ratio: %.3f vs %.3f", hot.HitRatio(), cold.HitRatio())
	}
	if cold.ServingCost <= hot.ServingCost {
		t.Fatalf("fan-out not charged: disabled %.9f <= hot %.9f", cold.ServingCost, hot.ServingCost)
	}
}

func TestHotTierModelEvictsUnderPressure(t *testing.T) {
	// Tier sized for ~2 resident objects while 6 keys cycle past a
	// frequently-touched favourite: the scan keys evict each other,
	// but CLOCK's reference bit keeps the favourite resident.
	tr := &workload.Trace{Objects: make(map[string]int64)}
	at := time.Duration(0)
	add := func(key string) {
		tr.Records = append(tr.Records, workload.Record{Time: at, Op: workload.OpGet, Key: key, Size: 64 << 10})
		tr.Objects[key] = 64 << 10
		at += 3 * time.Second
	}
	for r := 0; r < 8; r++ {
		for k := 0; k < 6; k++ {
			add("fav")
			add(fmt.Sprintf("scan-%d", k))
		}
	}
	cfg := hotTestConfig(160 << 10) // 2.5 x 64 KiB
	r := Run(cfg, tr)
	if r.HotHits == 0 {
		t.Fatal("expected the favourite key to survive the scan and hot-hit")
	}
}
