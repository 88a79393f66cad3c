package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"infinicache/internal/client"
)

// ctx is the context every test op runs under; cancellation and
// deadlines are exercised in internal/client.
var ctx = context.Background()

// testDeployment spins up a small, fast cluster for integration tests.
func testDeployment(t *testing.T, mutate func(*Config)) (*Deployment, *client.Client) {
	t.Helper()
	cfg := Config{
		Proxies:         1,
		NodesPerProxy:   8,
		NodeMemoryMB:    256,
		DataShards:      4,
		ParityShards:    2,
		TimeScale:       0.02, // 50x faster than wall clock
		ColdStartDelay:  20 * time.Millisecond,
		WarmInvokeDelay: 5 * time.Millisecond,
		Seed:            1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return d, c
}

func randObj(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	_, c := testDeployment(t, nil)
	obj := randObj(1, 1<<20) // 1 MB
	if err := c.PutCtx(ctx, "alpha", obj); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := c.GetCtx(ctx, "alpha")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted through cache")
	}
	if c.Stats().Hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1", c.Stats().Hits.Load())
	}
}

func TestGetMissOnUnknownKey(t *testing.T) {
	_, c := testDeployment(t, nil)
	if _, err := c.GetCtx(ctx, "never-stored"); !errors.Is(err, client.ErrMiss) {
		t.Fatalf("err = %v, want ErrMiss", err)
	}
	if c.Stats().ColdMisses.Load() != 1 {
		t.Fatal("cold miss not counted")
	}
}

func TestOverwriteReplacesObject(t *testing.T) {
	_, c := testDeployment(t, nil)
	v1 := randObj(2, 64<<10)
	v2 := randObj(3, 80<<10)
	if err := c.PutCtx(ctx, "key", v1); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCtx(ctx, "key", v2); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetCtx(ctx, "key")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("overwrite did not take effect")
	}
}

func TestDelInvalidates(t *testing.T) {
	_, c := testDeployment(t, nil)
	if err := c.PutCtx(ctx, "gone", randObj(4, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := c.DelCtx(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(ctx, "gone"); !errors.Is(err, client.ErrMiss) {
		t.Fatalf("err after del = %v, want ErrMiss", err)
	}
}

func TestManyObjectsAcrossPool(t *testing.T) {
	_, c := testDeployment(t, nil)
	const n = 12
	objs := make([][]byte, n)
	for i := range objs {
		objs[i] = randObj(int64(10+i), 32<<10+i*1000)
		if err := c.PutCtx(ctx, fmt.Sprintf("obj-%d", i), objs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := range objs {
		got, err := c.GetCtx(ctx, fmt.Sprintf("obj-%d", i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, objs[i]) {
			t.Fatalf("object %d corrupted", i)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	d, _ := testDeployment(t, func(c *Config) { c.NodesPerProxy = 10 })
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := d.NewClient()
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 5; i++ {
				key := fmt.Sprintf("c%d-obj%d", ci, i)
				obj := randObj(int64(ci*100+i), 16<<10)
				if err := cl.PutCtx(ctx, key, obj); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				got, err := cl.GetCtx(ctx, key)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				if !bytes.Equal(got, obj) {
					errs <- fmt.Errorf("object %s corrupted", key)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSurvivesUpToParityReclaims(t *testing.T) {
	d, c := testDeployment(t, func(c *Config) { c.EnableRecovery = false })
	obj := randObj(5, 256<<10)
	if err := c.PutCtx(ctx, "resilient", obj); err != nil {
		t.Fatal(err)
	}
	// Reclaim 2 of the 8 nodes (= p). At most 2 chunks lost; the object
	// must still be readable via EC reconstruction.
	d.Platform.ForceReclaimMatching(NodeName(0, 0), -1)
	d.Platform.ForceReclaimMatching(NodeName(0, 1), -1)
	got, err := c.GetCtx(ctx, "resilient")
	if err != nil {
		t.Fatalf("get after reclaim: %v", err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted after reclaim")
	}
}

func TestObjectLostBeyondParity(t *testing.T) {
	d, c := testDeployment(t, nil)
	obj := randObj(6, 128<<10)
	if err := c.PutCtx(ctx, "fragile", obj); err != nil {
		t.Fatal(err)
	}
	// Reclaim every node: all chunks gone.
	for i := 0; i < 8; i++ {
		d.Platform.ForceReclaimMatching(NodeName(0, i), -1)
	}
	_, err := c.GetCtx(ctx, "fragile")
	if !errors.Is(err, client.ErrLost) && !errors.Is(err, client.ErrMiss) {
		t.Fatalf("err = %v, want ErrLost/ErrMiss", err)
	}
}

func TestGetOrLoadResetsLostObject(t *testing.T) {
	d, c := testDeployment(t, nil)
	obj := randObj(7, 64<<10)
	loads := 0
	loader := func(context.Context) ([]byte, error) { loads++; return obj, nil }

	got, err := c.GetOrLoadCtx(ctx, "reset-me", loader)
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("first GetOrLoad: %v", err)
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	// Now cached.
	if _, err := c.GetOrLoadCtx(ctx, "reset-me", loader); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("loads = %d after hit, want 1", loads)
	}
	// Destroy the whole pool; next access must RESET.
	for i := 0; i < 8; i++ {
		d.Platform.ForceReclaimMatching(NodeName(0, i), -1)
	}
	if _, err := c.GetOrLoadCtx(ctx, "reset-me", loader); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Fatalf("loads = %d after loss, want 2", loads)
	}
	// And it is cached again.
	got, err = c.GetCtx(ctx, "reset-me")
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("get after reset: %v", err)
	}
}

func TestMultiProxyDeployment(t *testing.T) {
	_, c := testDeployment(t, func(cfg *Config) {
		cfg.Proxies = 3
		cfg.NodesPerProxy = 6
	})
	for i := 0; i < 15; i++ {
		key := fmt.Sprintf("spread-%d", i)
		obj := randObj(int64(i), 8<<10)
		if err := c.PutCtx(ctx, key, obj); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		got, err := c.GetCtx(ctx, key)
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("get %s: %v", key, err)
		}
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	// Tiny pool: 6 nodes x 1 MB... NodeMemoryMB is an int (MB), so use
	// 6 nodes x 1 MB and 600 KB objects: each object spreads ~100-150 KB
	// chunks over 6 of 6 nodes; ~8 objects overflow the pool.
	_, c := testDeployment(t, func(cfg *Config) {
		cfg.NodesPerProxy = 6
		cfg.NodeMemoryMB = 1
		cfg.DataShards = 4
		cfg.ParityShards = 2
	})
	const n = 20
	for i := 0; i < n; i++ {
		if err := c.PutCtx(ctx, fmt.Sprintf("evict-%d", i), randObj(int64(i), 600<<10)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Recent objects must be resident; the oldest evicted.
	hits, misses := 0, 0
	for i := 0; i < n; i++ {
		_, err := c.GetCtx(ctx, fmt.Sprintf("evict-%d", i))
		switch {
		case err == nil:
			hits++
		case errors.Is(err, client.ErrMiss) || errors.Is(err, client.ErrLost):
			misses++
		default:
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if misses == 0 {
		t.Fatal("no evictions under memory pressure")
	}
	if hits == 0 {
		t.Fatal("everything evicted; CLOCK policy broken")
	}
	t.Logf("eviction test: %d hits, %d misses", hits, misses)
}
