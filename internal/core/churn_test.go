package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// churn_test.go exercises elastic membership: proxy joins and leaves
// under live traffic, the WRONG_OWNER redirect protocol, the paced key
// migration that follows an epoch bump, and the single-flight
// degraded-GET recovery plane.

// TestRingVersionAdvancesOnChurn pins the epoch sequence a deployment
// publishes: v1 at New, +1 per join, +1 per leave.
func TestRingVersionAdvancesOnChurn(t *testing.T) {
	d, _ := testDeployment(t, func(cfg *Config) {
		cfg.Proxies = 2
		cfg.NodesPerProxy = 6
	})
	if v := d.Epoch().Version(); v != 1 {
		t.Fatalf("initial epoch version = %d, want 1", v)
	}
	px, err := d.AddProxy()
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Epoch().Version(); v != 2 {
		t.Fatalf("epoch version after join = %d, want 2", v)
	}
	if !d.Epoch().Contains(px.Addr()) {
		t.Fatal("joined proxy missing from epoch")
	}
	if err := d.QuiesceMigration(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveProxy(px.Addr()); err != nil {
		t.Fatal(err)
	}
	if v := d.Epoch().Version(); v != 3 {
		t.Fatalf("epoch version after leave = %d, want 3", v)
	}
	if d.Epoch().Contains(px.Addr()) {
		t.Fatal("removed proxy still in epoch")
	}
}

// TestJoinRedirectsStaleClient: a client built before a join keeps its
// old ring view; after the join, every key must remain readable — the
// moved keys through WRONG_OWNER redirects (and, inside the migration
// window, fallback redirects to the old owner) — and the client must
// have picked up the new epoch along the way.
func TestJoinRedirectsStaleClient(t *testing.T) {
	d, c := testDeployment(t, func(cfg *Config) {
		cfg.Proxies = 2
		cfg.NodesPerProxy = 6
	})
	const n = 24
	objs := make([][]byte, n)
	for i := range objs {
		objs[i] = randObj(int64(100+i), 8<<10)
		if err := c.PutCtx(ctx, fmt.Sprintf("join-%d", i), objs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	px, err := d.AddProxy()
	if err != nil {
		t.Fatal(err)
	}
	// Read everything immediately — mid-migration on purpose.
	for i := range objs {
		got, err := c.GetCtx(ctx, fmt.Sprintf("join-%d", i))
		if err != nil {
			t.Fatalf("get join-%d mid-migration: %v", i, err)
		}
		if !bytes.Equal(got, objs[i]) {
			t.Fatalf("join-%d corrupted mid-migration", i)
		}
	}
	if err := d.QuiesceMigration(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// And again after the handoff settled.
	for i := range objs {
		got, err := c.GetCtx(ctx, fmt.Sprintf("join-%d", i))
		if err != nil {
			t.Fatalf("get join-%d post-migration: %v", i, err)
		}
		if !bytes.Equal(got, objs[i]) {
			t.Fatalf("join-%d corrupted post-migration", i)
		}
	}
	if c.Stats().Losses.Load() != 0 || c.Stats().ColdMisses.Load() != 0 {
		t.Fatalf("lost keys across join: losses=%d misses=%d",
			c.Stats().Losses.Load(), c.Stats().ColdMisses.Load())
	}
	if c.Stats().Redirects.Load() == 0 {
		t.Fatal("stale client was never redirected — ownership not enforced")
	}
	if c.Stats().RingRefreshes.Load() == 0 {
		t.Fatal("client never installed the new epoch")
	}
	// With 24 keys over a 2→3 ring, some must have moved to the joiner.
	var migrated int64
	for _, p := range d.proxySnapshot() {
		migrated += p.Stats().MigratedKeys.Load()
	}
	if migrated == 0 {
		t.Fatal("no keys migrated to the joiner")
	}
	if got := px.Stats().Puts.Load(); got == 0 {
		t.Fatal("joiner received no migration SETs")
	}
	// New writes route to the joiner's ring directly (no redirect churn
	// once the view is fresh).
	before := c.Stats().Redirects.Load()
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("post-join-%d", i)
		obj := randObj(int64(500+i), 8<<10)
		if err := c.PutCtx(ctx, key, obj); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		got, err := c.GetCtx(ctx, key)
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("get %s: %v", key, err)
		}
	}
	if after := c.Stats().Redirects.Load(); after != before {
		t.Fatalf("fresh-view traffic still redirected (%d → %d): rings disagree", before, after)
	}
}

// TestJoinMidTrafficNoLostNoStale runs live readers and a
// read-after-write writer across a proxy join: no stable key may be
// lost or corrupted at any instant, and every acknowledged overwrite
// must be the value read back. This is the no-lost/no-stale acceptance
// check for the migration plane (run under -race in CI).
func TestJoinMidTrafficNoLostNoStale(t *testing.T) {
	d, c := testDeployment(t, func(cfg *Config) {
		cfg.Proxies = 2
		cfg.NodesPerProxy = 6
	})
	const stable = 16
	objs := make([][]byte, stable)
	for i := range objs {
		objs[i] = randObj(int64(200+i), 8<<10)
		if err := c.PutCtx(ctx, fmt.Sprintf("stable-%d", i), objs[i]); err != nil {
			t.Fatalf("put stable-%d: %v", i, err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	// Reader: sweeps the stable keys until told to stop. Every read must
	// succeed with the original bytes, whatever migration is doing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sweep := 0; ; sweep++ {
			select {
			case <-stop:
				return
			default:
			}
			i := sweep % stable
			got, err := c.GetCtx(ctx, fmt.Sprintf("stable-%d", i))
			if err != nil {
				fail("mid-churn get stable-%d: %v", i, err)
				return
			}
			if !bytes.Equal(got, objs[i]) {
				fail("stable-%d stale/corrupt mid-churn", i)
				return
			}
		}
	}()
	// Writer: versioned overwrites with read-after-write verification.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 1; round <= 3; round++ {
			for i := 0; i < 6; i++ {
				key := fmt.Sprintf("hot-%d", i)
				val := randObj(int64(round*1000+i), 8<<10)
				if err := c.PutCtx(ctx, key, val); err != nil {
					fail("overwrite %s round %d: %v", key, round, err)
					return
				}
				got, err := c.GetCtx(ctx, key)
				if err != nil {
					fail("read-after-write %s round %d: %v", key, round, err)
					return
				}
				if !bytes.Equal(got, val) {
					fail("%s round %d: read-after-write returned stale value", key, round)
					return
				}
			}
		}
	}()

	if _, err := d.AddProxy(); err != nil {
		t.Fatal(err)
	}
	if err := d.QuiesceMigration(30 * time.Second); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	// Final sweep after the dust settled.
	for i := range objs {
		got, err := c.GetCtx(ctx, fmt.Sprintf("stable-%d", i))
		if err != nil || !bytes.Equal(got, objs[i]) {
			t.Fatalf("stable-%d after churn: %v", i, err)
		}
	}
}

// TestRemoveProxyKeysSurvive: a leaving proxy streams its keys to their
// new owners before shutting down; both a stale client (dead conns,
// old ring) and a fresh one must read everything afterwards.
func TestRemoveProxyKeysSurvive(t *testing.T) {
	d, c := testDeployment(t, func(cfg *Config) {
		cfg.Proxies = 3
		cfg.NodesPerProxy = 6
	})
	const n = 24
	objs := make([][]byte, n)
	for i := range objs {
		objs[i] = randObj(int64(300+i), 8<<10)
		if err := c.PutCtx(ctx, fmt.Sprintf("leave-%d", i), objs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	victim := d.Proxies[0].Addr()
	if err := d.RemoveProxy(victim); err != nil {
		t.Fatal(err)
	}
	// The stale client holds a dead connection to the victim and a ring
	// that still routes to it; retries must heal through the new epoch.
	for i := range objs {
		got, err := c.GetCtx(ctx, fmt.Sprintf("leave-%d", i))
		if err != nil {
			t.Fatalf("stale client get leave-%d after removal: %v", i, err)
		}
		if !bytes.Equal(got, objs[i]) {
			t.Fatalf("leave-%d corrupted after removal", i)
		}
	}
	// A fresh client knows only the survivors.
	fresh, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for i := range objs {
		got, err := fresh.GetCtx(ctx, fmt.Sprintf("leave-%d", i))
		if err != nil || !bytes.Equal(got, objs[i]) {
			t.Fatalf("fresh client get leave-%d: %v", i, err)
		}
	}
}

// TestDegradedGetSingleFlightRecovery: with every node holding exactly
// one chunk, reclaiming the two nodes that hold the PARITY chunks makes
// every GET arrive with exactly the four data chunks — a degraded read
// with two chunks to repair, deterministically. Eight concurrent
// degraded GETs must coalesce onto ONE reconstruction — the proxy sees
// exactly two recovery SETs, not sixteen — and the completed repair is
// remembered, so later reads write nothing more.
func TestDegradedGetSingleFlightRecovery(t *testing.T) {
	const seed = 1
	d, c := testDeployment(t, func(cfg *Config) {
		cfg.NodesPerProxy = 6 // d+p = 6: every node holds exactly one chunk
		cfg.EnableRecovery = true
		cfg.Seed = seed
	})
	obj := randObj(9, 256<<10)
	if err := c.PutCtx(ctx, "repair-me", obj); err != nil {
		t.Fatal(err)
	}
	// Replicate the client's seeded placement (partial Fisher–Yates over
	// a persistent scratch permutation; NewClient derives its rng from
	// deployment seed + 101) to learn which node got each chunk of the
	// one PUT above. Chunks 4 and 5 are the parity shards.
	rng := rand.New(rand.NewSource(seed + 101))
	perm := []int{0, 1, 2, 3, 4, 5}
	nodes := make([]int, 6)
	for i := range nodes {
		j := i + rng.Intn(6-i)
		perm[i], perm[j] = perm[j], perm[i]
		nodes[i] = perm[i]
	}
	putsBefore := d.Proxies[0].Stats().Puts.Load()
	d.Platform.ForceReclaimMatching(NodeName(0, nodes[4]), -1)
	d.Platform.ForceReclaimMatching(NodeName(0, nodes[5]), -1)
	// One read teaches the proxy the loss: its fetches from the two
	// reclaimed nodes answer MISS, and the readers below find both
	// chunks reported lost.
	if got, err := c.GetCtx(ctx, "repair-me"); err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("read before the readers: %v", err)
	}
	waitFor(t, 10*time.Second, "the reclaimed nodes' MISSes", func() bool {
		return d.Proxies[0].Stats().ChunkMisses.Load() >= 2
	})

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.GetCtx(context.Background(), "repair-me")
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, obj) {
				errs <- errors.New("degraded read corrupted")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	recovered := c.Stats().Recoveries.Load()
	if recovered != 2 {
		t.Fatalf("chunks recovered = %d, want exactly 2 (single-flight)", recovered)
	}
	extraSets := d.Proxies[0].Stats().Puts.Load() - putsBefore
	if extraSets != 2 {
		t.Fatalf("proxy saw %d recovery SETs, want exactly 2 — duplicate reconstructions", extraSets)
	}
	// The repaired object reads back clean with no further recovery.
	got, err := c.GetCtx(ctx, "repair-me")
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("read after repair: %v", err)
	}
	if c.Stats().Recoveries.Load() != recovered {
		t.Fatal("repaired object triggered another recovery")
	}
}
