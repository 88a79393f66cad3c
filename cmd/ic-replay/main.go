// ic-replay replays a trace open-loop against a pluggable cache
// backend and prints a Figure 11/13-style report: per-outcome latency
// percentiles measured from each request's scheduled arrival, hit
// ratio, and backend cost. -backend sim runs the same trace through the
// discrete-event model (internal/sim) instead, without a clock or a
// replay, and prints a Table 1/Figure 13-style block: hit ratio, RESETs,
// recoveries, cost by component, and the ElastiCache comparison.
//
// Usage:
//
//	ic-replay -trace trace.csv [-format csv|ibmdocker|azure]
//	          [-backend infinicache|sim|redis|dummy] [-large-only]
//	          [-speedup 60] [-sessions 8] [-batch 8] [-size-cap 1048576]
//	          [-preload] [-no-insert]
//	          [-proxies 1] [-clients 1] [-nodes 20] [-mem 1536] [-d 10] [-p 2]
//	          [-warm 1m] [-backup 5m] [-hot bytes] [-hot-max bytes]
//	          [-chaos "0s:corrupt:*:0.02:2s,10ms:reclaim:p0-node0:all,30ms:join:1"]
//	          [-timescale 0.01] [-shards 1] [-redis-mem bytes]
//	          [-instance cache.r5.large] [-seed 1]
//
// Without -trace, a canonical synthetic trace of -hours hours is
// generated; -large-only keeps only the records of objects >= 10 MB.
// Each other flag is read by some backends only (see flagReaders), and
// setting one the chosen backend would ignore is an error.
//
// -speedup divides trace inter-arrival times; 0 disables pacing and
// replays as fast as the sessions drain. -timescale additionally
// compresses the virtual clock of the replay and of the
// infinicache/redis backends, which speeds up the replay AND every
// deployment timer (warm-ups, billing, reclamation) coherently — use
// -speedup to change only the offered load.
//
// -clients n replays through n independent InfiniCache clients spread
// round-robin across the session workers, so each client keeps its own
// connections and ring view.
//
// -chaos drives the event plane during the replay: a comma-separated
// schedule of OFFSET:KIND[:args] events (reclaim storms, proxy crashes,
// link corruption/rot/latency/hangup, dial refusals, proxy joins and
// leaves — see internal/chaos.Parse for the grammar), seeded and paced
// on the virtual clock from the replay start so a fixed seed reproduces
// the same sequence. The run waits for the schedule's last event, then
// prints what fired. A schedule with joins or leaves then waits for
// migration to quiesce and reports how many keys moved. A schedule with
// any other event turns on client recovery and byte verification of
// every hit, and reports injected counts per class, the defence-side
// counters (checksum failures, corrupt chunks lost, degraded GETs, EC
// recoveries, repairs) and the corrupt reads; a join/leave-only
// schedule runs the deployment it would run without -chaos.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"infinicache"
	"infinicache/internal/chaos"
	"infinicache/internal/core"
	"infinicache/internal/exps"
	"infinicache/internal/replay"
	"infinicache/internal/sim"
	"infinicache/internal/stats"
	"infinicache/internal/vclock"
	"infinicache/internal/workload"
)

// Backend groups, by what a backend does with the trace.
const (
	backends  = "infinicache/sim/redis/dummy"
	replayers = "infinicache/redis/dummy" // replay it through a cache
	pools     = "infinicache/sim"         // serve it from a Lambda pool
)

// flagReaders names the backends that read each flag. A flag missing
// here (-trace, -format, -hours, -seed, -large-only, -backend) shapes
// the trace, which every backend reads.
var flagReaders = map[string]string{
	"speedup": replayers, "sessions": replayers, "batch": replayers, "size-cap": replayers,
	"preload": replayers, "no-insert": replayers, "timescale": replayers,
	"nodes": pools, "mem": pools, "d": pools, "p": pools,
	"warm": pools, "backup": pools, "hot": pools, "hot-max": pools,
	"proxies": "infinicache", "clients": "infinicache", "chaos": "infinicache",
	"shards": "redis", "redis-mem": "redis", "instance": "redis",
}

// checkFlags refuses a flag set on fs that backend would ignore.
func checkFlags(fs *flag.FlagSet, backend string) error {
	if !slices.Contains(strings.Split(backends, "/"), backend) {
		return fmt.Errorf("unknown backend %q (want %s)", backend, backends)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if r, ok := flagReaders[f.Name]; ok && err == nil && !slices.Contains(strings.Split(r, "/"), backend) {
			err = fmt.Errorf("-%s is not read by -backend %s (only by %s)", f.Name, backend, r)
		}
	})
	return err
}

func main() {
	traceFile := flag.String("trace", "", "trace file to replay (default: synthetic)")
	format := flag.String("format", "csv",
		"trace format: "+strings.Join(workload.Formats(), ", "))
	hours := flag.Int("hours", 1, "synthetic trace length (ignored with -trace)")
	largeOnly := flag.Bool("large-only", false, "keep only the records of objects >= 10 MB")
	backend := flag.String("backend", "infinicache", "backend: "+backends)
	speedup := flag.Float64("speedup", 1, "replay speed factor (0 = unpaced)")
	sessions := flag.Int("sessions", 8, "concurrent client sessions")
	batch := flag.Int("batch", 1, "MGet burst cap for queued requests (>= 2 enables batching)")
	sizeCap := flag.Int64("size-cap", 0, "clamp object sizes to this many bytes (0 = off)")
	preload := flag.Bool("preload", false, "bulk-insert every distinct object before replaying")
	noInsert := flag.Bool("no-insert", false, "disable GET-upon-miss insertion")
	seed := flag.Int64("seed", 1, "random seed")

	proxies := flag.Int("proxies", 1, "proxies at start")
	nodes := flag.Int("nodes", 20, "Lambda pool size")
	mem := flag.Int("mem", 1536, "Lambda memory MB")
	d := flag.Int("d", 10, "data shards")
	p := flag.Int("p", 2, "parity shards")
	warm := flag.Duration("warm", time.Minute, "T_warm (0 disables)")
	backup := flag.Duration("backup", 5*time.Minute, "T_bak (0 disables)")
	hot := flag.Int64("hot", 0, "proxy hot-tier bytes (0 disables)")
	hotMax := flag.Int64("hot-max", 0, "hot-tier admission cap (0 = 1 MiB)")
	clients := flag.Int("clients", 1, "independent clients spread across sessions")
	chaosSpec := flag.String("chaos", "", "event schedule, e.g. '0s:corrupt:*:0.02:2s,10ms:reclaim:p0-node0:all,30ms:join:1' (see internal/chaos)")
	timescale := flag.Float64("timescale", 0, "virtual clock scale (0.01 = 100x faster; 0 = real time)")

	shards := flag.Int("shards", 1, "number of cache servers")
	redisMem := flag.Int64("redis-mem", 4<<30, "memory bytes per shard")
	instance := flag.String("instance", "cache.r5.large", "instance type for pricing")
	flag.VisitAll(func(f *flag.Flag) {
		if r, ok := flagReaders[f.Name]; ok {
			f.Usage = r + ": " + f.Usage
		}
	})
	flag.Parse()
	if err := checkFlags(flag.CommandLine, *backend); err != nil {
		log.Fatal(err)
	}

	var chaosSched *chaos.Schedule
	faulting := false
	if *chaosSpec != "" {
		var err error
		if chaosSched, err = chaos.Parse(*chaosSpec); err != nil {
			log.Fatalf("-chaos: %v", err)
		}
		faulting = chaosSched.Faulting()
	}

	var trace *workload.Trace
	if *traceFile != "" {
		fm, err := workload.ParseFormat(*format)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		trace, err = workload.ReadTrace(fm, f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		trace = exps.CanonicalTrace(*hours, *seed)
	}
	if *largeOnly {
		trace = trace.LargeOnly()
	}
	st := trace.ComputeStats()
	fmt.Printf("trace: %d records, %d objects, WSS %.1f MB, %.0f GETs/hour\n",
		st.Records, st.DistinctObjects, float64(st.WorkingSetBytes)/(1<<20), st.GetsPerHour)

	if *backend == "sim" {
		fmt.Println()
		simulate(os.Stdout, trace, sim.Config{
			Nodes:          *nodes,
			NodeMemoryMB:   *mem,
			DataShards:     *d,
			ParityShards:   *p,
			WarmupInterval: *warm,
			BackupInterval: *backup,
			ReclaimPolicy:  exps.CanonicalPolicy(),
			Seed:           *seed,
		}, *hot, *hotMax)
		return
	}

	var clk vclock.Clock = vclock.NewReal()
	if *timescale > 0 {
		clk = vclock.NewScaled(*timescale)
	}

	var b replay.Backend
	var cache *infinicache.Cache
	var sessionBackends []replay.Backend
	var icBackends []*replay.InfiniCacheBackend
	switch *backend {
	case "dummy":
		b = replay.NewDummy()
	case "redis":
		rb, err := replay.NewRedis(replay.RedisConfig{
			Clock:        clk,
			Shards:       *shards,
			MemoryBytes:  *redisMem,
			InstanceType: *instance,
		})
		if err != nil {
			log.Fatal(err)
		}
		b = rb
	case "infinicache":
		opts := []infinicache.Option{
			infinicache.WithProxies(*proxies),
			infinicache.WithNodesPerProxy(*nodes),
			infinicache.WithNodeMemoryMB(*mem),
			infinicache.WithShards(*d, *p),
			infinicache.WithWarmupInterval(*warm),
			infinicache.WithBackupInterval(*backup),
			infinicache.WithHotTier(*hot),
			infinicache.WithHotTierMaxObject(*hotMax),
			infinicache.WithTimeScale(*timescale),
			infinicache.WithSeed(*seed),
		}
		if faulting {
			// The chaos integrity invariant depends on the repair plane:
			// corrupt or reclaimed chunks become erasures the client
			// reconstructs and re-inserts.
			opts = append(opts, infinicache.WithRecovery(true))
		}
		var err error
		cache, err = infinicache.New(opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer cache.Close()
		clk = cache.Clock()
		ib, err := replay.NewInfiniCache(cache)
		if err != nil {
			log.Fatal(err)
		}
		b = ib
		icBackends = append(icBackends, ib)
		if *clients > 1 {
			sessionBackends = []replay.Backend{ib}
			for i := 1; i < *clients; i++ {
				extra, err := replay.NewInfiniCache(cache)
				if err != nil {
					log.Fatal(err)
				}
				defer extra.Close()
				sessionBackends = append(sessionBackends, extra)
				icBackends = append(icBackends, extra)
			}
		}
		if faulting {
			// Under faults every hit is byte-verified against the written
			// pattern: the harness-level oracle for "zero corrupt bytes
			// returned", independent of the protocol's own checksums.
			for _, ib := range icBackends {
				ib.VerifyReads(true)
			}
		}
	}
	defer b.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *preload {
		n, err := replay.Preload(ctx, b, trace.Records, *sizeCap, max(*batch, 16))
		if err != nil {
			log.Fatalf("preload: %v", err)
		}
		fmt.Printf("preloaded %d objects\n", n)
	}

	cfg := replay.Config{
		Clock:           clk,
		Speedup:         *speedup,
		Sessions:        *sessions,
		Batch:           *batch,
		SizeCap:         *sizeCap,
		NoInsertOnMiss:  *noInsert,
		SessionBackends: sessionBackends,
	}
	if *speedup == 0 {
		cfg.Speedup = -1 // CLI convention: 0 means unpaced
	}
	fmt.Printf("replaying against %s (%d sessions, %d clients, speedup %v)...\n\n",
		*backend, *sessions, max(*clients, 1), *speedup)

	// The event scheduler starts after any preload: offsets are virtual
	// time from the replay start, and the preloaded baseline is what the
	// integrity report measures losses against.
	var chaosRunner *chaos.Runner
	if chaosSched != nil {
		dep := cache.Deployment()
		chaosRunner = chaos.New(chaosSched, clk, dep.Faults(), dep.Platform, dep)
		if err := chaosRunner.Start(); err != nil {
			log.Fatalf("-chaos: %v", err)
		}
	}

	res, err := replay.Run(ctx, cfg, trace, b)
	if res != nil {
		fmt.Print(res.Summary())
	}
	if err != nil {
		log.Fatalf("replay interrupted: %v", err)
	}

	if chaosRunner != nil {
		chaosRunner.Wait()
		rep := chaosRunner.Report()
		dep := cache.Deployment()
		if chaosSched.Churning() {
			if qerr := dep.QuiesceMigration(2 * time.Minute); qerr != nil {
				log.Fatalf("churn: migration did not quiesce: %v", qerr)
			}
			var keys, bytes, drops int64
			for _, p := range dep.Proxies {
				st := p.Stats()
				keys += st.MigratedKeys.Load()
				bytes += st.MigratedBytes.Load()
				drops += st.MigrationDrops.Load()
			}
			fmt.Printf("churn: epoch v%d, %d proxies; migrated %d keys (%.1f MB chunk payload), %d drops\n",
				dep.Epoch().Version(), len(dep.ProxyInfos()), keys, float64(bytes)/(1<<20), drops)
		}
		fmt.Printf("\n%s", rep.String())
		if !faulting {
			return
		}
		fmt.Print(faultTable(dep, rep))
		// Integrity is byte-exactness: every verified hit matched the
		// written pattern. RESETs/errors during an active fault window
		// are availability outcomes (the caller refetches), reported
		// separately — a corrupt read is the invariant violation.
		var corrupt int64
		for _, ib := range icBackends {
			corrupt += ib.CorruptReads()
		}
		integrity := 100.0
		if res != nil && res.Hits > 0 {
			integrity = 100 * float64(int64(res.Hits)-corrupt) / float64(res.Hits)
		}
		fmt.Printf("chaos: fault classes landed: %d; corrupt reads: %d/%d (%.2f%% data integrity); availability: %d RESETs, %d errors of %d GETs\n",
			rep.Classes(), corrupt, res.Hits, integrity, res.Resets, res.Errors, res.Gets)
	}
}

// simulate runs cfg's modeled deployment over trace and writes its
// block, plus a hot-tier column when hot > 0 and the ElastiCache
// comparison.
func simulate(w io.Writer, trace *workload.Trace, cfg sim.Config, hot, hotMax int64) {
	res := sim.Run(cfg, trace)
	report := func(name string, r *sim.Result) {
		fmt.Fprintf(w, "%s:\n", name)
		fmt.Fprintf(w, "  hit ratio:   %.1f%% (%d hits / %d gets)\n", r.HitRatio()*100, r.Hits, r.Gets)
		if r.HotHits > 0 {
			fmt.Fprintf(w, "  hot hits:    %d (%.1f%% of gets, served from proxy memory)\n",
				r.HotHits, 100*float64(r.HotHits)/float64(r.Gets))
		}
		fmt.Fprintf(w, "  cold misses: %d\n", r.ColdMisses)
		fmt.Fprintf(w, "  RESETs:      %d\n", r.Resets)
		fmt.Fprintf(w, "  recoveries:  %d chunks\n", r.Recoveries)
		fmt.Fprintf(w, "  reclaims:    %d instances\n", r.Reclaims)
		fmt.Fprintf(w, "  cost:        $%.2f total (serving $%.2f, warm-up $%.2f, backup $%.2f)\n",
			r.TotalCost(), r.ServingCost, r.WarmupCost, r.BackupCost)
		if r.Gets > 0 {
			fmt.Fprintf(w, "  availability: %.2f%% of accesses\n", 100*(1-float64(r.Resets)/float64(r.Gets)))
		}
	}
	report(fmt.Sprintf("InfiniCache (%d x %d MB, RS(%d+%d), warm %v, backup %v)",
		cfg.Nodes, cfg.NodeMemoryMB, cfg.DataShards, cfg.ParityShards, cfg.WarmupInterval, cfg.BackupInterval), res)

	if hot > 0 {
		hotCfg := cfg
		hotCfg.HotTierBytes = hot
		hotCfg.HotMaxObjectBytes = hotMax
		hotRes := sim.Run(hotCfg, trace)
		fmt.Fprintln(w)
		report(fmt.Sprintf("InfiniCache + hot tier (%d MB cap)", hot>>20), hotRes)
		fmt.Fprintf(w, "\nhot tier saves $%.2f of serving cost (%.1fx cheaper serving)\n",
			res.ServingCost-hotRes.ServingCost, res.ServingCost/hotRes.ServingCost)
	}

	ec := sim.RunElastiCache("cache.r5.24xlarge", trace, cfg.Seed+1)
	fmt.Fprintf(w, "\nElastiCache (cache.r5.24xlarge): hit %.1f%%, cost $%.2f (%.0fx more expensive)\n",
		ec.HitRatio()*100, ec.TotalCost, ec.TotalCost/res.TotalCost())
}

// faultTable folds the chaos report and every layer's fault/defence
// counters into one post-run table.
func faultTable(dep *core.Deployment, rep chaos.Report) string {
	var injected int64
	for _, n := range rep.Injected {
		injected += n
	}
	var checksums, corrupt, degraded, repairs, recoveries int64
	for _, p := range dep.Proxies {
		st := p.Stats()
		checksums += st.ChecksumFailures.Load()
		corrupt += st.CorruptLost.Load()
		degraded += st.DegradedGets.Load()
		repairs += st.Repairs.Load()
	}
	for _, cl := range dep.Clients() {
		st := cl.Stats()
		checksums += st.ChecksumFailures.Load()
		recoveries += st.Recoveries.Load()
	}
	var rows [][]string
	for _, r := range []struct {
		name string
		n    int64
	}{
		{"faults injected (link)", injected},
		{"instances reclaimed", rep.Reclaimed},
		{"conns severed", rep.Severed},
		{"checksum failures", checksums},
		{"corrupt chunks lost", corrupt},
		{"degraded GETs", degraded},
		{"EC recoveries", recoveries},
		{"chunk repairs", repairs},
	} {
		rows = append(rows, []string{r.name, fmt.Sprint(r.n)})
	}
	return stats.Table([]string{"fault/recovery counter", "count"}, rows)
}
