package infinicache_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	infinicache "infinicache"
	"infinicache/internal/core"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/vclock"
)

func newTestCache(t *testing.T) *infinicache.Cache {
	t.Helper()
	c, err := infinicache.New(
		infinicache.WithNodesPerProxy(8),
		infinicache.WithNodeMemoryMB(256),
		infinicache.WithShards(4, 2),
		infinicache.WithTimeScale(0.02),
		infinicache.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPublicAPIQuickstart(t *testing.T) {
	cache := newTestCache(t)
	cl, err := cache.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	obj := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(obj)
	if err := cl.PutCtx(ctx, "hello", obj); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetCtx(ctx, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("round trip corrupted the object")
	}
	if _, err := cl.GetCtx(ctx, "missing"); !errors.Is(err, infinicache.ErrMiss) {
		t.Fatalf("expected ErrMiss, got %v", err)
	}

	if err := cl.DelCtx(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetCtx(ctx, "hello"); !errors.Is(err, infinicache.ErrMiss) {
		t.Fatalf("expected ErrMiss after DelCtx, got %v", err)
	}
}

// TestPublicAPIHotTier drives the WithHotTier option through the full
// deployment: a re-read small object becomes tier-resident at its
// owning proxy, the proxy's hot counters move, and overwrites stay
// immediately visible (the tier invalidates synchronously).
func TestPublicAPIHotTier(t *testing.T) {
	cache, err := infinicache.New(
		infinicache.WithNodesPerProxy(8),
		infinicache.WithNodeMemoryMB(256),
		infinicache.WithShards(4, 2),
		infinicache.WithSeed(1),
		infinicache.WithHotTier(32<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	cl, err := cache.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	obj := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(obj)
	if err := cl.PutCtx(ctx, "hot", obj); err != nil {
		t.Fatal(err)
	}
	// First GET read-admits (the PUT left the key ghost-warm); the
	// second must be a tier hit.
	for i := 0; i < 2; i++ {
		got, err := cl.GetCtx(ctx, "hot")
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("GET %d: %v", i, err)
		}
	}
	st := cache.Deployment().Proxies[0].Stats()
	if st.HotHits.Load() == 0 {
		t.Fatal("no hot-tier hits through the public API")
	}
	if st.HotBytes.Load() <= 0 {
		t.Fatal("HotBytes gauge not populated")
	}

	// Overwrite: the very next read must see the new bytes.
	obj2 := make([]byte, 64<<10)
	rand.New(rand.NewSource(8)).Read(obj2)
	if err := cl.PutCtx(ctx, "hot", obj2); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetCtx(ctx, "hot")
	if err != nil || !bytes.Equal(got, obj2) {
		t.Fatalf("GET after overwrite served stale/err: %v", err)
	}
}

func TestPublicAPIZeroCopyObject(t *testing.T) {
	cache := newTestCache(t)
	cl, err := cache.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	obj := make([]byte, 777<<10) // odd size exercises the tail segment
	rand.New(rand.NewSource(3)).Read(obj)
	if err := cl.PutCtx(ctx, "zc", obj); err != nil {
		t.Fatal(err)
	}

	handle, err := cl.GetObject(ctx, "zc")
	if err != nil {
		t.Fatal(err)
	}
	if handle.Size() != len(obj) {
		t.Fatalf("Size = %d, want %d", handle.Size(), len(obj))
	}
	if got := handle.Bytes(); !bytes.Equal(got, obj) {
		t.Fatal("Bytes mismatch")
	}
	var sink bytes.Buffer
	n, err := handle.WriteTo(&sink)
	if err != nil || n != int64(len(obj)) || !bytes.Equal(sink.Bytes(), obj) {
		t.Fatalf("WriteTo: n=%d err=%v", n, err)
	}
	viaRead, err := io.ReadAll(handle)
	if err != nil || !bytes.Equal(viaRead, obj) {
		t.Fatalf("Read: %v", err)
	}
	handle.Release()
	handle.Release() // double Release is a no-op
	if _, err := handle.WriteTo(io.Discard); !errors.Is(err, infinicache.ErrReleased) {
		t.Fatalf("WriteTo after Release = %v, want ErrReleased", err)
	}
}

func TestPublicAPIBatch(t *testing.T) {
	cache := newTestCache(t)
	cl, err := cache.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const n = 8
	rng := rand.New(rand.NewSource(5))
	pairs := make([]infinicache.KV, n)
	keys := make([]string, n)
	want := make(map[string][]byte, n)
	for i := range pairs {
		blob := make([]byte, 64<<10)
		rng.Read(blob)
		keys[i] = fmt.Sprintf("batch/%d", i)
		pairs[i] = infinicache.KV{Key: keys[i], Value: blob}
		want[keys[i]] = blob
	}
	for _, r := range cl.MPut(ctx, pairs...) {
		if r.Err != nil {
			t.Fatalf("MPut %s: %v", r.Key, r.Err)
		}
	}
	res := cl.MGet(ctx, append(keys, "batch/nope")...)
	if len(res) != n+1 {
		t.Fatalf("MGet returned %d results, want %d", len(res), n+1)
	}
	for i := 0; i < n; i++ {
		if res[i].Err != nil {
			t.Fatalf("MGet %s: %v", res[i].Key, res[i].Err)
		}
		if got := res[i].Object.Bytes(); !bytes.Equal(got, want[res[i].Key]) {
			t.Fatalf("MGet %s corrupted", res[i].Key)
		}
		res[i].Object.Release()
	}
	if !errors.Is(res[n].Err, infinicache.ErrMiss) {
		t.Fatalf("missing key err = %v, want ErrMiss", res[n].Err)
	}
}

func TestPublicAPIGetOrLoad(t *testing.T) {
	cache := newTestCache(t)
	cl, err := cache.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	loads := 0
	obj := []byte("backing store payload")
	loader := func(context.Context) ([]byte, error) { loads++; return obj, nil }
	for i := 0; i < 3; i++ {
		got, err := cl.GetOrLoadCtx(ctx, "lazy", loader)
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("GetOrLoadCtx #%d: %v", i, err)
		}
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	if cl.Stats().Hits.Load() != 2 {
		t.Fatalf("hits = %d, want 2", cl.Stats().Hits.Load())
	}
}

func TestPublicAPIFaultInjection(t *testing.T) {
	cache := newTestCache(t)
	cl, err := cache.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	obj := make([]byte, 256<<10)
	rand.New(rand.NewSource(2)).Read(obj)
	if err := cl.PutCtx(ctx, "resilient", obj); err != nil {
		t.Fatal(err)
	}
	// Kill up to p nodes through the exposed deployment.
	d := cache.Deployment()
	d.Platform.ForceReclaimMatching("p0-node0", -1)
	d.Platform.ForceReclaimMatching("p0-node1", -1)
	got, err := cl.GetCtx(ctx, "resilient")
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("get after reclaim: %v", err)
	}
}

// TestNewDefaults pins what New hands core.New: the paper's defaults,
// and for every option exactly the fields it writes, the "0 or negative
// disables" cases included (core reads 0 as off, so a disable must
// arrive as 0 and a default must not).
func TestNewDefaults(t *testing.T) {
	defaults := func(edit func(*core.Config)) core.Config {
		cfg := core.Config{
			NodesPerProxy:  20,
			DataShards:     10,
			ParityShards:   2,
			WarmupInterval: time.Minute,
			BackupInterval: 5 * time.Minute,
		}
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	clk := vclock.NewManual(time.Unix(0, 0))
	policy := lambdaemu.PoissonPerMinute{RatePerMinute: 0.5}
	for _, tc := range []struct {
		name string
		opts []infinicache.Option
		edit func(*core.Config)
	}{
		{"New()", nil, nil},
		{"WithProxies(3)", []infinicache.Option{infinicache.WithProxies(3)}, func(c *core.Config) { c.Proxies = 3 }},
		{"WithNodesPerProxy(14)", []infinicache.Option{infinicache.WithNodesPerProxy(14)}, func(c *core.Config) { c.NodesPerProxy = 14 }},
		{"WithNodeMemoryMB(512)", []infinicache.Option{infinicache.WithNodeMemoryMB(512)}, func(c *core.Config) { c.NodeMemoryMB = 512 }},
		{"WithShards(4, 2)", []infinicache.Option{infinicache.WithShards(4, 2)}, func(c *core.Config) { c.DataShards, c.ParityShards = 4, 2 }},
		{"WithShards(10, 0)", []infinicache.Option{infinicache.WithShards(10, 0)}, func(c *core.Config) { c.ParityShards = 0 }},
		{"WithWarmupInterval(2s)", []infinicache.Option{infinicache.WithWarmupInterval(2 * time.Second)}, func(c *core.Config) { c.WarmupInterval = 2 * time.Second }},
		{"WithWarmupInterval(0)", []infinicache.Option{infinicache.WithWarmupInterval(0)}, func(c *core.Config) { c.WarmupInterval = 0 }},
		{"WithBackupInterval(4s)", []infinicache.Option{infinicache.WithBackupInterval(4 * time.Second)}, func(c *core.Config) { c.BackupInterval = 4 * time.Second }},
		{"WithBackupInterval(-1s)", []infinicache.Option{infinicache.WithBackupInterval(-time.Second)}, func(c *core.Config) { c.BackupInterval = 0 }},
		{"WithHotTier(4 MiB)", []infinicache.Option{infinicache.WithHotTier(4 << 20)}, func(c *core.Config) { c.HotTierBytes = 4 << 20 }},
		{"WithHotTier(-1)", []infinicache.Option{infinicache.WithHotTier(-1)}, nil},
		{"WithHotTierMaxObject(64 KiB)", []infinicache.Option{infinicache.WithHotTierMaxObject(64 << 10)}, func(c *core.Config) { c.HotMaxObjectBytes = 64 << 10 }},
		{"WithReclaimPolicy", []infinicache.Option{infinicache.WithReclaimPolicy(policy)}, func(c *core.Config) { c.ReclaimPolicy = policy }},
		{"WithTimeScale(0.02)", []infinicache.Option{infinicache.WithTimeScale(0.02)}, func(c *core.Config) { c.TimeScale = 0.02 }},
		{"WithClock", []infinicache.Option{infinicache.WithClock(clk)}, func(c *core.Config) { c.Clock = clk }},
		{"WithTimeout(3s)", []infinicache.Option{infinicache.WithTimeout(3 * time.Second)}, func(c *core.Config) { c.RequestTimeout = 3 * time.Second }},
		{"WithRecovery(true)", []infinicache.Option{infinicache.WithRecovery(true)}, func(c *core.Config) { c.EnableRecovery = true }},
		{"WithSeed(7)", []infinicache.Option{infinicache.WithSeed(7)}, func(c *core.Config) { c.Seed = 7 }},
		{"last option wins", []infinicache.Option{infinicache.WithWarmupInterval(0), infinicache.WithWarmupInterval(time.Hour)}, func(c *core.Config) { c.WarmupInterval = time.Hour }},
	} {
		if got, want := infinicache.Resolve(tc.opts), defaults(tc.edit); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}
