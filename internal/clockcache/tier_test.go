package clockcache

import (
	"fmt"
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
	if tier.BeginPut("w", 100) {
		t.Fatal("overwrite of a resident key admitted: an insert must leave the ghost filter")
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
