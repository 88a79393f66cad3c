package clockcache

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// admitViaGet makes key resident the read-through way: a first miss
// registers it, the second reports capture, the caller inserts.
func admitViaGet(t *testing.T, tier *Tier, key string, bytes int64) {
	t.Helper()
	if hit, capture := tier.Get(key); hit || capture {
		t.Fatalf("first touch of %s: hit=%v capture=%v, want a plain miss", key, hit, capture)
	}
	if hit, capture := tier.Get(key); hit || !capture {
		t.Fatalf("second touch of %s: hit=%v capture=%v, want capture", key, hit, capture)
	}
	if ok, _ := tier.Insert(key, bytes); !ok {
		t.Fatalf("Insert(%s, %d) refused", key, bytes)
	}
}

func TestTierSecondTouchAdmits(t *testing.T) {
	tier := NewTier(1<<20, 1<<10)
	admitViaGet(t, tier, "r", 100)
	if hit, _ := tier.Get("r"); !hit {
		t.Fatal("inserted key does not hit")
	}

	// Write-through: the same gate, and every PUT invalidates first.
	if tier.BeginPut("w", 100) {
		t.Fatal("first-touch PUT admitted")
	}
	if !tier.BeginPut("w", 100) {
		t.Fatal("second-touch PUT not admitted")
	}
	tier.Insert("w", 100)
	if !tier.BeginPut("w", 100) {
		t.Fatal("overwrite of a resident key not admitted: invalidation must keep its credit")
	}
	if hit, _ := tier.Get("w"); hit {
		t.Fatal("BeginPut left the superseded entry resident")
	}
	if tier.Bytes() != 100 {
		t.Fatalf("Bytes = %d, want 100 (only r resident)", tier.Bytes())
	}
}

func TestTierSizeThreshold(t *testing.T) {
	tier := NewTier(1<<20, 1<<10)
	if !tier.Admits(1<<10) || tier.Admits(1<<10+1) {
		t.Fatal("Admits must include the threshold and exclude one byte over")
	}
	// An oversize or empty PUT neither admits nor registers the key.
	for _, size := range []int64{1<<10 + 1, 0} {
		tier.BeginPut("big", size)
		if tier.BeginPut("big", size) {
			t.Fatalf("PUT of %d bytes admitted", size)
		}
	}
	if _, capture := tier.Get("big"); capture {
		t.Fatal("refused PUTs registered the key in the ghost filter")
	}
}

func TestTierInvalidate(t *testing.T) {
	tier := NewTier(1<<20, 1<<10)
	admitViaGet(t, tier, "k", 64)
	tier.Invalidate("k")
	tier.Invalidate("absent")
	if hit, _ := tier.Get("k"); hit || tier.Bytes() != 0 {
		t.Fatalf("invalidated key still resident (Bytes=%d)", tier.Bytes())
	}
}

func TestTierInvalidateKeepsCredit(t *testing.T) {
	tier := NewTier(1<<20, 1<<10)
	admitViaGet(t, tier, "k", 64)
	tier.Invalidate("k")
	if hit, capture := tier.Get("k"); hit || !capture {
		t.Fatalf("invalidated resident key: hit=%v capture=%v, want a ghost-warm miss", hit, capture)
	}
	if !tier.BeginPut("k", 64) {
		t.Fatal("write of an invalidated resident key not admitted")
	}

	// No residency, no credit: invalidating a key that was never resident
	// registers nothing, and leaves a key the ghost filter has already
	// seen exactly as seen.
	tier.Invalidate("absent")
	if hit, capture := tier.Get("absent"); hit || capture {
		t.Fatalf("invalidating an absent key registered it: hit=%v capture=%v", hit, capture)
	}
	tier.Get("seen")
	tier.Invalidate("seen")
	if !tier.BeginPut("seen", 64) {
		t.Fatal("invalidating a non-resident key dropped its ghost entry")
	}
}

// smallHotHitRatio drives a bare 4 MiB tier with the repo benchmark's
// small_hot key stream — two clients × 2048 preloaded keys, Zipf(1.1)
// per client, 10 % PUT, 4 KiB objects accounted at their ten 410-byte
// data chunks — the way the proxy does: a GET miss with capture
// read-admits; a PUT drops the old entry (BeginObject's invalidation),
// then asks BeginPut and write-admits. It returns the tier hit ratio
// over the GETs after the first fifth of the ops.
func smallHotHitRatio(seed int64, ops int) float64 {
	const (
		clients  = 2
		keys     = 2048
		objBytes = 10 * 410
	)
	tier := NewTier(4<<20, 0)
	put := func(key string) {
		if tier.BeginPut(key, objBytes) {
			tier.Insert(key, objBytes)
		}
	}
	var zipfs [clients]*rand.Zipf
	var rngs [clients]*rand.Rand
	for c := range zipfs {
		rngs[c] = rand.New(rand.NewSource(seed*clients + int64(c)))
		zipfs[c] = rand.NewZipf(rngs[c], 1.1, 1, keys-1)
		for k := 0; k < keys; k++ {
			put("c" + strconv.Itoa(c) + "/k" + strconv.Itoa(k))
		}
	}
	gets, hits := 0, 0
	for i := 0; i < ops; i++ {
		c := i % clients
		key := "c" + strconv.Itoa(c) + "/k" + strconv.FormatUint(zipfs[c].Uint64(), 10)
		if rngs[c].Intn(100) < 10 {
			tier.Invalidate(key)
			put(key)
			continue
		}
		hit, capture := tier.Get(key)
		if capture {
			tier.Insert(key, objBytes)
		}
		if i >= ops/5 {
			gets++
			if hit {
				hits++
			}
		}
	}
	return float64(hits) / float64(gets)
}

// TestTierSmallHotHitRatio is the policy-quality floor. On this driver
// the policy that let an overwrite forget a resident key read 0.784–
// 0.786 (seeds 1–3); keeping the credit reads 0.852–0.853. TinyLFU-style
// admission (a candidate enters only if it has been accessed more often
// than the CLOCK victim) reads 0.866–0.867, and the static set of the
// most popular keys that fits the tier bounds it at 0.883.
func TestTierSmallHotHitRatio(t *testing.T) {
	ratio := smallHotHitRatio(1, 400000)
	t.Logf("small_hot tier hit ratio %.3f", ratio)
	if ratio < 0.84 {
		t.Fatalf("small_hot tier hit ratio %.3f, floor 0.84", ratio)
	}
}

func TestTierEvictsUnderPressure(t *testing.T) {
	// Room for 2.5 objects while six scan keys cycle past a favourite
	// that is touched between every one of them: the scan keys evict
	// each other, CLOCK's reference bit lets the favourite survive often
	// enough to hit, and the bytes never pass the cap.
	const obj, capBytes = 64 << 10, 160 << 10
	tier := NewTier(capBytes, 1<<20)
	evictions := 0
	read := func(key string) (hit bool) {
		hit, capture := tier.Get(key)
		if capture {
			ok, evicted := tier.Insert(key, obj)
			if !ok {
				t.Fatalf("Insert(%s) refused", key)
			}
			for _, v := range evicted {
				if hit, _ := tier.Get(v); hit {
					t.Fatalf("victim %s still resident", v)
				}
			}
			evictions += len(evicted)
		}
		if tier.Bytes() > capBytes {
			t.Fatalf("resident bytes %d exceed cap %d", tier.Bytes(), capBytes)
		}
		return hit
	}
	favHits := 0
	for r := 0; r < 8; r++ {
		for k := 0; k < 6; k++ {
			if read("fav") {
				favHits++
			}
			read(fmt.Sprintf("scan-%d", k))
		}
	}
	if evictions == 0 {
		t.Fatal("expected CLOCK evictions under pressure")
	}
	if favHits == 0 {
		t.Fatal("the favourite never survived the scan")
	}
	if ok, _ := tier.Insert("huge", capBytes+1); ok {
		t.Fatal("an object larger than the whole tier was inserted")
	}
}

func TestTierVictimsReenterGhost(t *testing.T) {
	tier := NewTier(100, 100)
	admitViaGet(t, tier, "a", 60)
	tier.Get("b")
	tier.Get("b")
	_, evicted := tier.Insert("b", 60)
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	if hit, capture := tier.Get("a"); hit || !capture {
		t.Fatalf("evicted key: hit=%v capture=%v, want a ghost-warm miss", hit, capture)
	}
}

func TestTierGhostBounded(t *testing.T) {
	tier := NewTier(1<<20, 1<<10) // small cap: the 1024-key floor applies
	for i := 0; i < 3000; i++ {
		tier.Get(fmt.Sprintf("scan-%d", i))
	}
	if n := tier.ghost.Len(); n > 1024 {
		t.Fatalf("ghost filter holds %d keys, bound is 1024", n)
	}
	if _, capture := tier.Get("scan-2999"); !capture {
		t.Fatal("the most recent key fell out of the ghost filter")
	}
	if big := NewTier(64<<20, 1<<10); big.ghostN != 4096 {
		t.Fatalf("64 MiB tier sized its ghost at %d keys, want cap>>14 = 4096", big.ghostN)
	}
}
