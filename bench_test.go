// Request-plane benchmarks and pins: a client, a proxy and an
// always-warm lambdanode.WarmPool over loopback TCP, isolating the
// client→proxy→node path from billing-cycle and reclamation noise.
// BenchmarkRequestPlane, BenchmarkGetZeroCopy and BenchmarkMGet report
// latency, allocations, flushes and PINGs per op; the three tests pin
// what must not regress (allocs/op, one write per hot hit, flushes per
// PUT burst). The paper's tables and figures are cmd/ic-repro's.
package infinicache_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"infinicache/internal/client"
	"infinicache/internal/lambdanode"
	"infinicache/internal/proxy"
)

// countingConn wraps a net.Conn and counts Write calls — on a TCP conn
// each is one syscall, so the counter observes the wire plane's flush
// coalescing from outside the protocol package.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// benchStack wires a live loopback stack: one proxy over a
// WarmPool and one client speaking RS(10+2), with an optional
// dialer override for the client's proxy connections and an optional
// proxy-resident hot tier (hotBytes > 0).
func benchStack(tb testing.TB, dial func(string) (net.Conn, error), hotBytes int64) (*client.Client, *lambdanode.WarmPool, *proxy.Proxy) {
	tb.Helper()
	pool := &lambdanode.WarmPool{}
	px, err := proxy.New(proxy.Config{
		Invoker:      pool,
		Nodes:        benchNodeNames(12),
		NodeMemoryMB: 3072,
		HotTierBytes: hotBytes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { px.Close() })
	c, err := client.New(client.Config{
		Proxies:      []client.ProxyInfo{{Addr: px.Addr(), PoolSize: 12}},
		DataShards:   10,
		ParityShards: 2,
		Seed:         7,
		Dial:         dial,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, pool, px
}

// benchRequestPlane is benchStack over plain TCP (so the vectored-write
// path is live) with the hot tier off — the PR 4 cold path; flushes/op
// comes from the client's own wire counters.
func benchRequestPlane(tb testing.TB) (*client.Client, *lambdanode.WarmPool) {
	c, pool, _ := benchStack(tb, nil, 0)
	return c, pool
}

func benchNodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("bench-node%d", i)
	}
	return names
}

// BenchmarkRequestPlane measures the live request plane end to end —
// client → proxy → emulated always-warm Lambda nodes over loopback TCP —
// tracking allocations per operation and preflight PINGs per operation
// (the round-trip overhead §3.3's validation rules govern) alongside
// throughput. Run with -benchmem; CHANGES.md records the history.
func BenchmarkRequestPlane(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{
		{"1KiB", 1 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
		{"10MiB", 10 << 20},
	}
	for _, sz := range sizes {
		obj := make([]byte, sz.n)
		rand.New(rand.NewSource(int64(sz.n))).Read(obj)
		b.Run("PUT/"+sz.name, func(b *testing.B) {
			c, pool := benchRequestPlane(b)
			ctx := context.Background()
			if err := c.PutCtx(ctx, "bench-obj", obj); err != nil { // warm the pool
				b.Fatal(err)
			}
			start := pool.Pings.Load()
			startW := c.WireStats().Flushes
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.PutCtx(ctx, "bench-obj", obj); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(pool.Pings.Load()-start)/float64(b.N), "pings/op")
			b.ReportMetric(float64(c.WireStats().Flushes-startW)/float64(b.N), "flushes/op")
		})
		b.Run("GET/"+sz.name, func(b *testing.B) {
			c, pool := benchRequestPlane(b)
			ctx := context.Background()
			if err := c.PutCtx(ctx, "bench-obj", obj); err != nil {
				b.Fatal(err)
			}
			if _, err := c.GetCtx(ctx, "bench-obj"); err != nil { // warm the pool
				b.Fatal(err)
			}
			start := pool.Pings.Load()
			startW := c.WireStats().Flushes
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.GetCtx(ctx, "bench-obj"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(pool.Pings.Load()-start)/float64(b.N), "pings/op")
			b.ReportMetric(float64(c.WireStats().Flushes-startW)/float64(b.N), "flushes/op")
		})
		if sz.n > 1<<20 {
			continue // above the hot tier's default admission threshold
		}
		// The hot split: same stack with a 64 MiB proxy-resident tier.
		// Two priming PUTs write-through-admit the object (the second
		// touch passes the frequency gate), so every timed GET is a
		// tier hit served straight from the proxy's session loop —
		// zero node chunk round trips.
		b.Run("GEThot/"+sz.name, func(b *testing.B) {
			c, pool, px := benchStack(b, nil, 64<<20)
			ctx := context.Background()
			for i := 0; i < 2; i++ {
				if err := c.PutCtx(ctx, "bench-obj", obj); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.GetCtx(ctx, "bench-obj"); err != nil {
				b.Fatal(err)
			}
			start := pool.Pings.Load()
			startHits := px.Stats().HotHits.Load()
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.GetCtx(ctx, "bench-obj"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			hits := px.Stats().HotHits.Load() - startHits
			if hits < int64(b.N) {
				b.Fatalf("only %d/%d GETs were tier hits", hits, b.N)
			}
			b.ReportMetric(float64(pool.Pings.Load()-start)/float64(b.N), "pings/op")
			b.ReportMetric(float64(hits)/float64(b.N), "hothits/op")
		})
	}
}

// BenchmarkGetZeroCopy compares the two GET consumption paths on the
// live loopback stack: "copy" materialises a contiguous []byte
// (GetCtx, the legacy Get semantics — one reassembly allocation+copy
// per op), "zerocopy" streams the pooled first-d shard buffers through
// the Object handle (GetObject → WriteTo → Release, no reassembly
// buffer). Run with -benchmem: the zero-copy path must show fewer
// allocs/op and lower ns/op (single-core container: the win is the
// removed copy, not parallelism).
func BenchmarkGetZeroCopy(b *testing.B) {
	ctx := context.Background()
	sizes := []struct {
		name string
		n    int
	}{
		{"1MiB", 1 << 20},
		{"10MiB", 10 << 20},
	}
	for _, sz := range sizes {
		obj := make([]byte, sz.n)
		rand.New(rand.NewSource(int64(sz.n))).Read(obj)
		b.Run("copy/"+sz.name, func(b *testing.B) {
			c, _ := benchRequestPlane(b)
			if err := c.PutCtx(ctx, "bench-obj", obj); err != nil {
				b.Fatal(err)
			}
			if _, err := c.GetCtx(ctx, "bench-obj"); err != nil { // warm the pool
				b.Fatal(err)
			}
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := c.GetCtx(ctx, "bench-obj")
				if err != nil || len(data) != sz.n {
					b.Fatal(err)
				}
			}
		})
		b.Run("zerocopy/"+sz.name, func(b *testing.B) {
			c, _ := benchRequestPlane(b)
			if err := c.PutCtx(ctx, "bench-obj", obj); err != nil {
				b.Fatal(err)
			}
			if _, err := c.GetCtx(ctx, "bench-obj"); err != nil { // warm the pool
				b.Fatal(err)
			}
			b.SetBytes(int64(sz.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := c.GetObject(ctx, "bench-obj")
				if err != nil {
					b.Fatal(err)
				}
				n, err := h.WriteTo(io.Discard)
				if err != nil || n != int64(sz.n) {
					b.Fatal(err)
				}
				h.Release()
			}
		})
	}
}

// BenchmarkMGet compares fetching a 16-key working set one blocking
// round trip at a time against one pipelined MGet burst over the same
// proxy connection (and MPut against sequential PUTs for the write
// side).
func BenchmarkMGet(b *testing.B) {
	const nkeys = 16
	const objSize = 64 << 10
	ctx := context.Background()
	keys := make([]string, nkeys)
	pairs := make([]client.KV, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-mget/%d", i)
		blob := make([]byte, objSize)
		rand.New(rand.NewSource(int64(i))).Read(blob)
		pairs[i] = client.KV{Key: keys[i], Value: blob}
	}
	seed := func(b *testing.B, c *client.Client) {
		b.Helper()
		for _, r := range c.MPut(ctx, pairs...) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.Run("GET/sequential", func(b *testing.B) {
		c, _ := benchRequestPlane(b)
		seed(b, c)
		b.SetBytes(nkeys * objSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				h, err := c.GetObject(ctx, k)
				if err != nil {
					b.Fatal(err)
				}
				h.Release()
			}
		}
	})
	b.Run("GET/batch", func(b *testing.B) {
		c, _ := benchRequestPlane(b)
		seed(b, c)
		b.SetBytes(nkeys * objSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range c.MGet(ctx, keys...) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				r.Object.Release()
			}
		}
	})
	b.Run("PUT/sequential", func(b *testing.B) {
		c, _ := benchRequestPlane(b)
		seed(b, c)
		b.SetBytes(nkeys * objSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, kv := range pairs {
				if err := c.PutCtx(ctx, kv.Key, kv.Value); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("PUT/batch", func(b *testing.B) {
		c, _ := benchRequestPlane(b)
		seed(b, c)
		b.SetBytes(nkeys * objSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range c.MPut(ctx, pairs...) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// TestHotGetSingleWrite pins the hot tier's wire-plane property end to
// end: one tier hit for a large object (chunks at or above VectoredMin)
// reaches the client in exactly ONE proxy-side socket write — the
// precomputed wire image ships headers and all d pinned chunk payloads
// as a single vectored writev. Before prebuilt images the same hit cost
// one Forward per chunk (d vectored writes).
func TestHotGetSingleWrite(t *testing.T) {
	c, _, px := benchStack(t, nil, 64<<20)
	ctx := context.Background()
	obj := make([]byte, 1<<20) // RS(10+2): ~105 KiB chunks, all pinned
	rand.New(rand.NewSource(2)).Read(obj)
	// Two PUTs write-through-admit the object; the priming GET proves
	// the entry is resident before the measured hit.
	for i := 0; i < 2; i++ {
		if err := c.PutCtx(ctx, "single-write-obj", obj); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GetCtx(ctx, "single-write-obj"); err != nil {
		t.Fatal(err)
	}
	startHits := px.Stats().HotHits.Load()
	startWire := px.WireSnapshot()
	if _, err := c.GetCtx(ctx, "single-write-obj"); err != nil {
		t.Fatal(err)
	}
	if got := px.Stats().HotHits.Load() - startHits; got != 1 {
		t.Fatalf("measured GET made %d tier hits, want 1", got)
	}
	wire := px.WireSnapshot()
	if got := wire.Flushes - startWire.Flushes; got != 1 {
		t.Fatalf("hot 1MiB GET cost %d proxy socket writes, want exactly 1", got)
	}
	if got := wire.Vectored - startWire.Vectored; got != 1 {
		t.Fatalf("hot 1MiB GET cost %d vectored writes, want exactly 1", got)
	}
}

// TestRequestPlaneAllocPins pins allocations per operation on the live
// loopback stack with testing.AllocsPerRun, so an alloc regression on
// the request plane fails CI instead of silently eroding throughput.
// The pins carry ~25 % slack over the measured steady state (hot
// GET/1KiB measures 8 allocs/op, cold GET/1KiB 59, PUT/1KiB 115); each
// limit is the acceptance bound, not the measurement.
func TestRequestPlaneAllocPins(t *testing.T) {
	ctx := context.Background()
	obj := make([]byte, 1<<10)
	rand.New(rand.NewSource(3)).Read(obj)

	// Min over a few attempts: a GC pass mid-window empties the
	// sync.Pools and re-charges their refills to whichever run is
	// unlucky; the minimum is the steady state the pin governs.
	measure := func(t *testing.T, runs int, fn func()) float64 {
		t.Helper()
		best := math.MaxFloat64
		for attempt := 0; attempt < 3; attempt++ {
			if a := testing.AllocsPerRun(runs, fn); a < best {
				best = a
			}
		}
		return best
	}

	t.Run("GEThot/1KiB", func(t *testing.T) {
		c, _, px := benchStack(t, nil, 64<<20)
		for i := 0; i < 2; i++ {
			if err := c.PutCtx(ctx, "alloc-obj", obj); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.GetCtx(ctx, "alloc-obj"); err != nil {
			t.Fatal(err)
		}
		startHits := px.Stats().HotHits.Load()
		got := measure(t, 100, func() {
			if _, err := c.GetCtx(ctx, "alloc-obj"); err != nil {
				t.Fatal(err)
			}
		})
		if px.Stats().HotHits.Load() == startHits {
			t.Fatal("measured GETs were not tier hits")
		}
		if got > 10 {
			t.Fatalf("hot GET/1KiB = %.1f allocs/op, want <= 10", got)
		}
	})
	t.Run("GETcold/1KiB", func(t *testing.T) {
		c, _ := benchRequestPlane(t)
		if err := c.PutCtx(ctx, "alloc-obj", obj); err != nil {
			t.Fatal(err)
		}
		if _, err := c.GetCtx(ctx, "alloc-obj"); err != nil {
			t.Fatal(err)
		}
		got := measure(t, 50, func() {
			if _, err := c.GetCtx(ctx, "alloc-obj"); err != nil {
				t.Fatal(err)
			}
		})
		if got > 74 {
			t.Fatalf("cold GET/1KiB = %.1f allocs/op, want <= 74", got)
		}
	})
	t.Run("PUT/1KiB", func(t *testing.T) {
		c, _ := benchRequestPlane(t)
		if err := c.PutCtx(ctx, "alloc-obj", obj); err != nil {
			t.Fatal(err)
		}
		got := measure(t, 50, func() {
			if err := c.PutCtx(ctx, "alloc-obj", obj); err != nil {
				t.Fatal(err)
			}
		})
		if got > 144 {
			t.Fatalf("PUT/1KiB = %.1f allocs/op, want <= 144", got)
		}
	})
}

// TestPutBurstFlushCount pins the wire plane's headline property: a
// 12-chunk pipelined PUT burst (RS(10+2), small object) leaves the
// client connection in at most TWO write syscalls — the Pin/Flush
// window coalesces all d+p SET frames; pre-coalescing it cost one
// flush per chunk.
func TestPutBurstFlushCount(t *testing.T) {
	writes := &atomic.Int64{}
	c, _, _ := benchStack(t, func(addr string) (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: raw, writes: writes}, nil
	}, 0)
	ctx := context.Background()
	obj := make([]byte, 1<<10)
	rand.New(rand.NewSource(1)).Read(obj)
	// Warm: dial, JOIN_CLIENT, node invocations, first-ever PUT.
	if err := c.PutCtx(ctx, "flush-count-obj", obj); err != nil {
		t.Fatal(err)
	}
	start := writes.Load()
	if err := c.PutCtx(ctx, "flush-count-obj", obj); err != nil {
		t.Fatal(err)
	}
	if got := writes.Load() - start; got > 2 {
		t.Fatalf("12-chunk PUT burst took %d client-conn writes, want <= 2", got)
	}
}
