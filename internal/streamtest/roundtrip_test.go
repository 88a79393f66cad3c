package streamtest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"infinicache"
)

// newStack stands up one live deployment big enough for every geometry
// under test (pool >= d+p of the widest code).
func newStack(t *testing.T) *infinicache.Cache {
	return newScaledStack(t, 0.02)
}

// newScaledStack is newStack at a chosen time scale.
func newScaledStack(t *testing.T, timeScale float64) *infinicache.Cache {
	t.Helper()
	cache, err := infinicache.New(
		infinicache.WithNodesPerProxy(12),
		infinicache.WithNodeMemoryMB(256),
		infinicache.WithShards(10, 2),
		infinicache.WithTimeScale(timeScale),
		infinicache.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	return cache
}

// TestStreamRoundTripProperty is the oracle property: for random
// (object size, shard geometry, range offset/length) triples, GetRange
// returns exactly the oracle slice, and whole-object reads through
// GetObject agree — across mid-shard starts, stripe-boundary spans,
// the final partial stripe, empty ranges, and past-EOF reads (which
// clamp, never error).
func TestStreamRoundTripProperty(t *testing.T) {
	cache := newStack(t)
	ctx := context.Background()

	geometries := []struct {
		d, p  int
		shard int64
	}{
		{2, 1, 1 << 10},
		{4, 2, 2 << 10},
		{10, 2, 4 << 10},
	}
	for _, g := range geometries {
		g := g
		t.Run(fmt.Sprintf("rs%d+%d", g.d, g.p), func(t *testing.T) {
			cl, err := cache.NewClient(
				infinicache.ClientShards(g.d, g.p),
				infinicache.ClientStripeShard(g.shard),
				infinicache.ClientSeed(int64(g.d*100+g.p)),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			h := New(cl)
			rng := rand.New(rand.NewSource(int64(g.d)<<8 | int64(g.p)))
			stripeData := g.shard * int64(g.d)

			// Object sizes: random plus the geometry's own edges (exact
			// stripe multiple, one byte over, sub-shard, final partial
			// stripe).
			sizes := []int64{
				stripeData,
				stripeData + 1,
				3 * stripeData,
				g.shard / 2,
				2*stripeData + g.shard + 17,
			}
			for i := 0; i < 3; i++ {
				sizes = append(sizes, 1+rng.Int63n(5*stripeData))
			}

			for oi, size := range sizes {
				key := fmt.Sprintf("obj/%d+%d/%d", g.d, g.p, oi)
				data := Pattern(rng, size)
				if err := h.PutStream(ctx, key, data); err != nil {
					t.Fatalf("object %d (size %d): %v", oi, size, err)
				}

				ranges := [][2]int64{
					{0, size},                                      // whole object, ranged
					{g.shard / 3, g.shard},                         // mid-shard start
					{stripeData - g.shard/2, g.shard},              // stripe-boundary span
					{(size / stripeData) * stripeData, stripeData}, // final (possibly partial) stripe
					{size / 2, 0},                                  // empty range
					{size + 99, 1 << 10},                           // entirely past EOF: clamps empty
					{size - 1, 4 << 10},                            // tail clamp
					{-64, 128},                                     // negative offset clamps
				}
				for i := 0; i < 4; i++ {
					off := rng.Int63n(size + size/4 + 1)
					n := rng.Int63n(2 * stripeData)
					ranges = append(ranges, [2]int64{off, n})
				}
				for _, r := range ranges {
					if err := h.CheckRange(ctx, key, r[0], r[1]); err != nil {
						t.Fatalf("object %d (size %d, stripeData %d): %v", oi, size, stripeData, err)
					}
				}
				// Whole-object read: single-stripe streamed PUTs serve the
				// plain first-d path, multi-stripe ones the ranged fallback.
				if err := h.CheckObject(ctx, key); err != nil {
					t.Fatalf("object %d (size %d): %v", oi, size, err)
				}
			}
		})
	}
}

// TestGetRangeOnLegacyObjects pins that ranged reads work on objects
// stored through the materialised PutCtx path — a legacy single-stripe
// object has no stream geometry in its mapping entry, and the proxy
// must plan it as one stripe of its own size.
func TestGetRangeOnLegacyObjects(t *testing.T) {
	cache := newStack(t)
	ctx := context.Background()
	cl, err := cache.NewClient(
		infinicache.ClientShards(4, 2),
		infinicache.ClientStripeShard(1<<10),
		infinicache.ClientSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := New(cl)
	rng := rand.New(rand.NewSource(11))

	for oi, size := range []int64{37, 4 << 10, 60_000} {
		key := fmt.Sprintf("legacy/%d", oi)
		if err := h.PutLegacy(ctx, key, Pattern(rng, size)); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int64{{0, size}, {size / 3, size / 2}, {size - 1, 10}, {size + 5, 5}, {0, 0}} {
			if err := h.CheckRange(ctx, key, r[0], r[1]); err != nil {
				t.Fatalf("legacy object %d (size %d): %v", oi, size, err)
			}
		}
		if err := h.CheckObject(ctx, key); err != nil {
			t.Fatal(err)
		}
	}

	if err := h.CheckMiss(ctx, "legacy/never-written"); err != nil {
		t.Fatal(err)
	}
}

// TestWideRangeBeyondSessionWindow pins that a ranged read whose plan is
// wider than the proxy session's chunk window (1024) is issued in
// window-sized batches: 600 stripes × RS(4+2) at a 256 B stripe shard is
// 2400 data-chunk fetches for one full-range read. Before the session
// issued every read through one windowed fetch path the node replies
// overflowed the session's completions channel, the dispatchers dropped
// them, and the leaked window slots wedged the session — so the reads
// repeat, and a small read on the same connection follows them.
func TestWideRangeBeyondSessionWindow(t *testing.T) {
	// Thousands of chunk fetches per read are real compute: a gentler
	// time scale than the suite's keeps the virtual request timeouts from
	// firing on wall-clock work when the race detector or a single core
	// slows it down.
	cache := newScaledStack(t, 0.25)
	ctx := context.Background()
	cl, err := cache.NewClient(
		infinicache.ClientShards(4, 2),
		infinicache.ClientStripeShard(256),
		infinicache.ClientSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := New(cl)

	const size = 600 * 4 * 256
	if err := h.PutStream(ctx, "wide", Pattern(rand.New(rand.NewSource(17)), size)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.CheckRange(ctx, "wide", 0, size); err != nil {
			t.Fatalf("full-range read %d: %v", i, err)
		}
	}
	if err := h.CheckObject(ctx, "wide"); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckRange(ctx, "wide", size/2, 1<<10); err != nil {
		t.Fatalf("1 KiB read after the wide ones: %v", err)
	}
}
