package exps

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/core"
	"infinicache/internal/protocol"
	"infinicache/internal/rediscache"
	"infinicache/internal/stats"
	"infinicache/internal/vclock"
)

// Live microbenchmarks run the real client->proxy->Lambda path (over a
// deployment's in-process transport; the ElastiCache baseline over TCP)
// at TimeScale 1 (virtual time == wall time), so erasure-coding CPU cost
// and protocol overhead are measured honestly alongside the modeled
// Lambda bandwidth (50-160 MB/s by memory size).

// Figure11 runs the GET-latency microbenchmark grid on the live system.
func Figure11(cfg Params) string {
	var b strings.Builder
	b.WriteString("Figure 11: GET latency (ms) by RS code, object size, Lambda memory (live system)\n\n")
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, mem := range cfg.MemoriesMB {
		fmt.Fprintf(&b, "--- %d MB Lambdas ---\n", mem)
		fmt.Fprintf(&b, "%-8s", "code")
		for _, sz := range cfg.SizesMB {
			fmt.Fprintf(&b, "%16s", fmt.Sprintf("%dMB p50/p95", sz))
		}
		b.WriteString("\n")
		for _, code := range cfg.Codes {
			d, p := code[0], code[1]
			fmt.Fprintf(&b, "%-8s", fmt.Sprintf("(%d+%d)", d, p))
			lat := measureGetLatency(mem, d, p, cfg.SizesMB, cfg.Samples, rng.Int63())
			for _, sz := range cfg.SizesMB {
				s := stats.Summarize(lat[sz])
				fmt.Fprintf(&b, "%16s", fmt.Sprintf("%.0f/%.0f", s.P50, s.P95))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	b.WriteString("paper shape: (10+1) fastest; (10+0) suffers stragglers; latency improves with memory,\nplateauing above 1024 MB.\n")
	return b.String()
}

// measureGetLatency builds one deployment and measures GET latency in
// milliseconds for each object size.
func measureGetLatency(memMB, d, p int, sizesMB []int, samples int, seed int64) map[int][]float64 {
	out := make(map[int][]float64)
	dep, err := core.New(core.Config{
		NodesPerProxy: d + p + 2,
		NodeMemoryMB:  memMB,
		DataShards:    d,
		ParityShards:  p,
		Seed:          seed,
	})
	if err != nil {
		return out
	}
	defer dep.Close()
	cl, err := dep.NewClient()
	if err != nil {
		return out
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for _, szMB := range sizesMB {
		obj := make([]byte, szMB<<20)
		rng.Read(obj)
		key := fmt.Sprintf("bench/%d", szMB)
		if err := cl.PutCtx(ctx, key, obj); err != nil {
			continue
		}
		for s := 0; s < samples; s++ {
			start := time.Now()
			// The zero-copy handle is the measured GET path: first-d
			// fan-in without the reassembly copy.
			h, err := cl.GetObject(ctx, key)
			if err != nil {
				break
			}
			h.Release()
			out[szMB] = append(out[szMB], float64(time.Since(start).Milliseconds()))
		}
	}
	return out
}

// Figure11f compares InfiniCache against live single-node and sharded
// ElastiCache-like deployments for large objects.
func Figure11f(p Params) string {
	var b strings.Builder
	b.WriteString("Figure 11(f): InfiniCache (3008 MB Lambdas) vs ElastiCache baselines (live)\n\n")

	icLat := measureGetLatency(3008, 10, 2, p.SizesMB, p.Samples, p.Seed)

	measureRedis := func(nodes int, memBytes int64, svcRate float64) map[int][]float64 {
		out := make(map[int][]float64)
		clock := vclock.NewReal()
		addrs := make([]string, 0, nodes)
		servers := make([]*rediscache.Server, 0, nodes)
		for i := 0; i < nodes; i++ {
			srv, err := rediscache.NewServer(rediscache.ServerConfig{
				Clock: clock, MemoryBytes: memBytes, ServiceRate: svcRate,
			})
			if err != nil {
				return out
			}
			servers = append(servers, srv)
			addrs = append(addrs, srv.Addr())
		}
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		cl, err := rediscache.NewClient(clock, addrs)
		if err != nil {
			return out
		}
		defer cl.Close()
		rng := rand.New(rand.NewSource(p.Seed))
		for _, szMB := range p.SizesMB {
			obj := make([]byte, szMB<<20)
			rng.Read(obj)
			key := fmt.Sprintf("bench/%d", szMB)
			if err := cl.Put(key, obj); err != nil {
				continue
			}
			for s := 0; s < p.Samples; s++ {
				start := time.Now()
				if _, err := cl.Get(key); err != nil {
					break
				}
				out[szMB] = append(out[szMB], float64(time.Since(start).Milliseconds()))
			}
		}
		return out
	}
	// One big single-threaded node vs a 10-node shard (each shard still
	// single-threaded, but a single object lives on one shard, so the
	//10-node latency profile matches one smaller node with less queueing).
	ec1 := measureRedis(1, 256<<30, 600e6)
	ec10 := measureRedis(10, 26<<30, 600e6)

	fmt.Fprintf(&b, "%-10s %18s %18s %18s\n", "size", "InfiniCache p50", "EC 1-node p50", "EC 10-node p50")
	for _, sz := range p.SizesMB {
		fmt.Fprintf(&b, "%-10s %15.0fms %15.0fms %15.0fms\n",
			fmt.Sprintf("%dMB", sz),
			stats.Summarize(icLat[sz]).P50,
			stats.Summarize(ec1[sz]).P50,
			stats.Summarize(ec10[sz]).P50)
	}
	b.WriteString("\npaper shape: IC beats the 1-node for all sizes and tracks/beats the 10-node on large objects.\n")
	return b.String()
}

// Figure4 measures latency as a function of VM-host spread: small pools
// co-locate many 256 MB Lambdas per ~3 GB host, so chunk transfers fight
// for the shared host NIC.
func Figure4(p Params) string {
	var b strings.Builder
	b.WriteString("Figure 4: latency vs number of VM hosts backing the pool (256 MB Lambdas, RS(10+1), 100 MB object)\n\n")
	fmt.Fprintf(&b, "%-10s %-8s %-40s\n", "pool", "hosts", "GET latency ms (p25/p50/p75/p95)")
	for _, pool := range []int{11, 22, 44, 110} {
		dep, err := core.New(core.Config{
			NodesPerProxy: pool,
			NodeMemoryMB:  256,
			DataShards:    10,
			ParityShards:  1,
			Seed:          p.Seed,
		})
		if err != nil {
			fmt.Fprintf(&b, "pool %d: %v\n", pool, err)
			continue
		}
		cl, err := dep.NewClient()
		if err != nil {
			dep.Close()
			continue
		}
		// Pre-warm the whole pool so instances exist on every VM host
		// (the paper's pools are kept warm by T_warm invocations); the
		// host spread is what the experiment varies.
		for warmed := 0; warmed < 3 && dep.Platform.InstanceCount("") < pool; warmed++ {
			dep.Proxies[0].Warmup()
			time.Sleep(200 * time.Millisecond)
		}
		obj := make([]byte, 100<<20)
		rand.New(rand.NewSource(p.Seed)).Read(obj)
		ctx := context.Background()
		var lat []float64
		for s := 0; s < p.Samples; s++ {
			// Re-PUT each round so the chunks land on a fresh random
			// subset of the pool (varying the host spread).
			key := fmt.Sprintf("spread/%d", s)
			if err := cl.PutCtx(ctx, key, obj); err != nil {
				break
			}
			start := time.Now()
			h, err := cl.GetObject(ctx, key)
			if err != nil {
				break
			}
			h.Release()
			lat = append(lat, float64(time.Since(start).Milliseconds()))
			cl.DelCtx(ctx, key)
		}
		names := make([]string, pool)
		for i := range names {
			names[i] = core.NodeName(0, i)
		}
		hosts := dep.Platform.HostsTouched(names)
		s := stats.Summarize(lat)
		fmt.Fprintf(&b, "%-10d %-8d %.0f/%.0f/%.0f/%.0f\n", pool, hosts, s.P25, s.P50, s.P75, s.P95)
		cl.Close()
		dep.Close()
	}
	b.WriteString("\npaper shape: spreading chunks over more VM hosts lowers latency (less NIC contention).\n")
	return b.String()
}

// Figure12 measures aggregate throughput scaling with concurrent clients
// against a multi-proxy deployment.
func Figure12(p Params) string {
	var b strings.Builder
	b.WriteString("Figure 12: throughput scaling with concurrent clients (3 proxies x 12 x 1 GB Lambdas)\n\n")
	dep, err := core.New(core.Config{
		Proxies:       3,
		NodesPerProxy: 12,
		NodeMemoryMB:  1024,
		DataShards:    4,
		ParityShards:  2,
		Seed:          p.Seed,
	})
	if err != nil {
		return err.Error()
	}
	defer dep.Close()

	seedCl, err := dep.NewClient()
	if err != nil {
		return err.Error()
	}
	const objects = 18
	const objSize = 4 << 20
	rng := rand.New(rand.NewSource(p.Seed))
	ctx := context.Background()
	pairs := make([]client.KV, objects)
	for i := 0; i < objects; i++ {
		obj := make([]byte, objSize)
		rng.Read(obj)
		pairs[i] = client.KV{Key: fmt.Sprintf("tp/%d", i), Value: obj}
	}
	// One batched MPut: chunk SETs for all objects ride each owning
	// proxy connection as a single windowed burst.
	for _, r := range seedCl.MPut(ctx, pairs...) {
		if r.Err != nil {
			return r.Err.Error()
		}
	}
	seedCl.Close()

	fmt.Fprintf(&b, "%-10s %-14s %-10s\n", "clients", "GB/s", "speedup")
	var base float64
	for _, n := range p.Clients {
		var moved atomic.Int64
		var wg sync.WaitGroup
		stop := time.Now().Add(time.Duration(p.PointSeconds) * time.Second)
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := dep.NewClient()
				if err != nil {
					return
				}
				defer cl.Close()
				r := rand.New(rand.NewSource(int64(c)))
				for time.Now().Before(stop) {
					obj, err := cl.GetObject(ctx, fmt.Sprintf("tp/%d", r.Intn(objects)))
					if err != nil {
						return
					}
					moved.Add(int64(obj.Size()))
					obj.Release()
				}
			}(c)
		}
		start := time.Now()
		wg.Wait()
		gbps := float64(moved.Load()) / time.Since(start).Seconds() / 1e9
		if base == 0 {
			base = gbps
		}
		fmt.Fprintf(&b, "%-10d %-14.3f %-10.2fx\n", n, gbps, gbps/base)
	}
	b.WriteString("\npaper shape: near-linear scaling while Lambda pools have bandwidth headroom.\n")
	return b.String()
}

// HotTierProbe measures the proxy-resident hot-object tier on a live
// deployment: per-GET latency for tier-resident ("hot") vs
// node-served ("cold") small objects, plus the proxy's tier counters.
// The cold pass reads freshly-written keys the ghost filter has seen
// once (so the reads themselves read-admit them); the hot pass re-reads
// the same keys and must be served from proxy memory with zero Lambda
// round trips.
func HotTierProbe(p Params) string {
	const objSize = 4 << 10
	var b strings.Builder
	fmt.Fprintf(&b, "Hot-tier probe: %d keys x %d B, %d rounds (live system, 64 MiB tier)\n\n",
		p.HotKeys, objSize, p.Samples)
	dep, err := core.New(core.Config{
		NodesPerProxy: 14,
		NodeMemoryMB:  1024,
		DataShards:    10,
		ParityShards:  2,
		HotTierBytes:  64 << 20,
		Seed:          p.Seed,
	})
	if err != nil {
		return err.Error()
	}
	defer dep.Close()
	cl, err := dep.NewClient()
	if err != nil {
		return err.Error()
	}
	defer cl.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(p.Seed))
	var cold, hot []float64
	for r := 0; r < p.Samples; r++ {
		// Fresh keys each round so the cold pass is genuinely cold.
		keys := make([]string, p.HotKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("hot/%d/%d", r, i)
		}
		for _, k := range keys {
			blob := make([]byte, objSize)
			rng.Read(blob)
			if err := cl.PutCtx(ctx, k, blob); err != nil {
				return err.Error()
			}
		}
		// Cold: first read after the write goes to the Lambda pool (and
		// read-admits: the PUT left the key ghost-warm).
		for _, k := range keys {
			start := time.Now()
			h, err := cl.GetObject(ctx, k)
			if err != nil {
				return err.Error()
			}
			h.Release()
			cold = append(cold, float64(time.Since(start).Microseconds()))
		}
		// Hot: the re-read is served from the proxy-resident tier.
		for _, k := range keys {
			start := time.Now()
			h, err := cl.GetObject(ctx, k)
			if err != nil {
				return err.Error()
			}
			h.Release()
			hot = append(hot, float64(time.Since(start).Microseconds()))
		}
	}
	cs, hs := stats.Summarize(cold), stats.Summarize(hot)
	fmt.Fprintf(&b, "%-16s %-22s %-22s\n", "path", "GET µs p50", "GET µs p95")
	fmt.Fprintf(&b, "%-16s %-22.0f %-22.0f\n", "cold (nodes)", cs.P50, cs.P95)
	fmt.Fprintf(&b, "%-16s %-22.0f %-22.0f\n", "hot (tier)", hs.P50, hs.P95)
	st := dep.Proxies[0].Stats()
	fmt.Fprintf(&b, "\ntier: %d hits / %d misses, %d bytes resident, %d evictions\n",
		st.HotHits.Load(), st.HotMisses.Load(), st.HotBytes.Load(), st.HotEvictions.Load())
	b.WriteString("a hot GET is served from the owning proxy's session loop: no d+p chunk RPCs, no Lambda billing.\n")
	return b.String()
}

// BatchProbe compares the batched client ops (MGet/MPut: one pipelined
// burst per owning proxy) against their sequential equivalents on a
// live multi-proxy deployment — the InfiniStore-style client-interface
// experiment layered on the paper's Figure 12 topology.
func BatchProbe(p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batch probe: %d keys x 1 MB over 3 proxies, %d rounds (live system)\n\n", p.BatchKeys, p.Samples)
	dep, err := core.New(core.Config{
		Proxies:       3,
		NodesPerProxy: 12,
		NodeMemoryMB:  1024,
		DataShards:    4,
		ParityShards:  2,
		Seed:          p.Seed,
	})
	if err != nil {
		return err.Error()
	}
	defer dep.Close()
	cl, err := dep.NewClient()
	if err != nil {
		return err.Error()
	}
	defer cl.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(p.Seed))
	keys := make([]string, p.BatchKeys)
	pairs := make([]client.KV, p.BatchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch/%d", i)
		blob := make([]byte, 1<<20)
		rng.Read(blob)
		pairs[i] = client.KV{Key: keys[i], Value: blob}
	}

	var seqPut, batPut, seqGet, batGet []float64
	for r := 0; r < p.Samples; r++ {
		start := time.Now()
		for _, kv := range pairs {
			if err := cl.PutCtx(ctx, kv.Key, kv.Value); err != nil {
				return err.Error()
			}
		}
		seqPut = append(seqPut, float64(time.Since(start).Milliseconds()))

		start = time.Now()
		for _, res := range cl.MPut(ctx, pairs...) {
			if res.Err != nil {
				return res.Err.Error()
			}
		}
		batPut = append(batPut, float64(time.Since(start).Milliseconds()))

		start = time.Now()
		for _, k := range keys {
			h, err := cl.GetObject(ctx, k)
			if err != nil {
				return err.Error()
			}
			h.Release()
		}
		seqGet = append(seqGet, float64(time.Since(start).Milliseconds()))

		start = time.Now()
		for _, res := range cl.MGet(ctx, keys...) {
			if res.Err != nil {
				return res.Err.Error()
			}
			res.Object.Release()
		}
		batGet = append(batGet, float64(time.Since(start).Milliseconds()))
	}
	fmt.Fprintf(&b, "%-16s %-22s %-22s\n", "op", "sequential ms p50", "batched ms p50")
	fmt.Fprintf(&b, "%-16s %-22.0f %-22.0f\n", "PUT x keys", stats.Summarize(seqPut).P50, stats.Summarize(batPut).P50)
	fmt.Fprintf(&b, "%-16s %-22.0f %-22.0f\n", "GET x keys", stats.Summarize(seqGet).P50, stats.Summarize(batGet).P50)
	b.WriteString("\nbatched ops ride one windowed burst per owning proxy instead of one round trip per key.\n")

	// Wire-plane coalescing across the proxies' client connections: how
	// many frames rode each socket flush (1.0 = one syscall per frame).
	var wire protocol.ConnStats
	for _, px := range dep.Proxies {
		wire.Add(px.WireSnapshot())
	}
	if wire.Flushes > 0 {
		fmt.Fprintf(&b, "wire plane: %d client frames out over %d flushes (%.1f frames/flush, %d vectored writes)\n",
			wire.FramesOut, wire.Flushes, float64(wire.FramesOut)/float64(wire.Flushes), wire.Vectored)
	}
	return b.String()
}
