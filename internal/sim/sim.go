// Package sim is the discrete-event replayer behind the production-trace
// experiments (§5.2): it replays a 50-hour workload against a modeled
// InfiniCache deployment, an ElastiCache instance, and bare S3 in
// virtual time, producing the hit ratios of Table 1, the cost timelines
// of Figure 13, the fault-tolerance activity of Figure 14, and the
// latency distributions of Figures 15 and 16.
//
// The simulator runs the live proxy's mapping table
// (proxy.NewMappingTable): its entries and epochs, placement, pool CLOCK
// eviction, loss marking and repair rule. Its nodes read as asleep, so
// Place keeps the model's random draw unless the entry's own chunks
// rule that node out. It also shares the hot-tier policy object
// (clockcache.Tier), the reclaim policies (internal/lambdaemu) and the
// pricing (internal/costmodel). What is its own is the trace loop, the
// reclaim process, backup rounds, latency and billing, so a gap between
// simulated and live runs is in those models, not in bookkeeping.
package sim

import (
	"math/rand"
	"time"

	"infinicache/internal/clockcache"
	"infinicache/internal/costmodel"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/netsim"
	"infinicache/internal/proxy"
	"infinicache/internal/workload"
)

// Config describes one InfiniCache replay.
type Config struct {
	// Pool geometry: the paper's production run uses 400 x 1.5 GB.
	Nodes        int
	NodeMemoryMB int
	// RS(d+p) code; the production run uses (10+2).
	DataShards   int
	ParityShards int
	// Intervals: T_warm (1 min) and T_bak (5 min). 0 disables either:
	// T_warm = 0 bills no warm-up, T_bak = 0 is the "w/o backup"
	// configuration.
	WarmupInterval time.Duration
	BackupInterval time.Duration
	// ReclaimPolicy drives provider reclaim events per minute.
	ReclaimPolicy lambdaemu.ReclaimPolicy
	// HotTierBytes enables the proxy-resident hot-object tier model
	// with the given byte capacity (0 disables it, the pre-PR-5
	// behaviour). Hot hits are served from proxy memory: no chunk
	// fan-out, no Lambda invocations, no serving cost.
	HotTierBytes int64
	// HotMaxObjectBytes is the tier's admission size threshold (0 takes
	// the policy's default of 1 MiB, as live).
	HotMaxObjectBytes int64
	// CorrelatedWipeProb is the chance that a reclaim of a backed-up
	// node takes both replicas at once: peer replicas of one function
	// frequently share a VM host (greedy bin-packing), and the provider
	// reclaims by host, so replica fates are correlated. Default 0.3.
	CorrelatedWipeProb float64
	Seed               int64
}

// metaScanRate models the per-backup state scan (bytes/second): the
// delta-sync must walk the resident set, which is why backup cost grows
// with cached bytes (§5.2).
const metaScanRate = 2e9

func (c *Config) fillDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 400
	}
	if c.NodeMemoryMB == 0 {
		c.NodeMemoryMB = 1536
	}
	if c.DataShards == 0 {
		c.DataShards = 10
	}
	if c.ParityShards == 0 {
		c.ParityShards = 2
	}
	if c.CorrelatedWipeProb == 0 {
		c.CorrelatedWipeProb = 0.3
	}
}

// simNode is one Lambda cache node's backup state in the model; what
// it stores is the mapping table's.
type simNode struct {
	replicas int // 1 = primary only, 2 = primary + synced peer
	// unsynced holds the chunks written to the node since its last
	// completed backup round, by chunk key: the delta-sync payload, and
	// what a reclaimed replica that absorbed them takes with it.
	unsynced map[string]unsyncedChunk
}

// unsyncedChunk is one chunk of an object incarnation written to a
// node since its last backup round.
type unsyncedChunk struct {
	key   string
	idx   int
	epoch uint64
	size  int64
}

// HourBucket aggregates per-hour activity (Figures 13 and 14 series).
type HourBucket struct {
	Gets       int
	Hits       int
	HotHits    int // subset of Hits served by the hot-tier model
	ColdMisses int
	Resets     int // loss-triggered reloads (Figure 14 RESET)
	Recoveries int // chunk re-inserts after degraded reads (Figure 14)
	Reclaims   int // provider reclaim events

	ServingCost float64
	WarmupCost  float64
	BackupCost  float64
}

// TotalCost sums a bucket's cost components.
func (h HourBucket) TotalCost() float64 { return h.ServingCost + h.WarmupCost + h.BackupCost }

// Result is the outcome of one replay.
type Result struct {
	Hours []HourBucket

	Gets       int
	Hits       int
	HotHits    int // subset of Hits served by the hot-tier model
	ColdMisses int
	Resets     int
	Recoveries int
	Reclaims   int

	// LatencySeconds holds the per-request client-perceived latency.
	LatencySeconds []float64
	// PerRequest records (size, latency) pairs for Figure 16 grouping.
	Sizes []int64

	// Costs.
	ServingCost float64
	WarmupCost  float64
	BackupCost  float64
}

// TotalCost is the replay's total dollar cost.
func (r *Result) TotalCost() float64 { return r.ServingCost + r.WarmupCost + r.BackupCost }

// HitRatio is hits / gets.
func (r *Result) HitRatio() float64 {
	if r.Gets == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Gets)
}

// Run replays the trace against a modeled InfiniCache deployment.
func Run(cfg Config, trace *workload.Trace) *Result {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	lm := &latencyModel{rng: rand.New(rand.NewSource(cfg.Seed + 1))}

	bw := netsim.BandwidthForMemory(cfg.NodeMemoryMB)
	pool := costmodel.Lambda{Nodes: cfg.Nodes, MemoryGB: float64(cfg.NodeMemoryMB) / 1024}

	hours := 1
	if n := len(trace.Records); n > 0 {
		hours = int(trace.Records[n-1].Time.Hours()) + 1
	}
	res := &Result{Hours: make([]HourBucket, hours)}
	bucket := func(t time.Duration) *HourBucket {
		h := int(t.Hours())
		if h >= len(res.Hours) {
			h = len(res.Hours) - 1
		}
		return &res.Hours[h]
	}

	d, p := cfg.DataShards, cfg.ParityShards
	total := d + p

	// The proxy-resident hot tier is the live proxy's own policy object,
	// run bare: the simulator is sequential, so none of the live tier's
	// token fencing is needed, and a resident object accounts for its d
	// data chunks (hotInsert), as live. The mapping table runs it as a
	// proxy's does: every entry it drops leaves the tier, and BeginObject
	// takes the write-through decision.
	var hot *clockcache.Tier
	if cfg.HotTierBytes > 0 {
		hot = clockcache.NewTier(cfg.HotTierBytes, cfg.HotMaxObjectBytes)
	}
	hotInsert := func(key string, size int64) {
		hot.Insert(key, chunkSize(size, d)*int64(d))
	}

	// The mapping table is the live proxy's: entries, placement, pool
	// eviction (§3.2) and repair. No node is awake in it, so Place keeps
	// each chunk on the node the model draws unless the entry's own
	// chunks rule that node out.
	table := proxy.NewMappingTable(cfg.Nodes, int64(cfg.NodeMemoryMB)<<20, hot)
	nodes := make([]simNode, cfg.Nodes)
	for i := range nodes {
		nodes[i] = simNode{replicas: 1, unsynced: make(map[string]unsyncedChunk)}
	}
	// store places chunk idx of key's incarnation epoch from hint and
	// commits it: a generation's write with gen, a repair with gen nil.
	// The chunks the table dropped leave their nodes' backup deltas.
	store := func(key string, idx, hint int, size int64, epoch uint64, gen proxy.NodeSet) {
		fence := epoch // a repair commits by content, outside any generation
		if gen == nil {
			fence = 0
		}
		node, dels, _, err := table.Place(key, idx, hint, size, fence, gen)
		for _, c := range dels {
			delete(nodes[c.Node].unsynced, c.Key)
		}
		if err == nil && table.CommitChunk(key, idx, node, size, fence, 0) {
			nodes[node].unsynced[proxy.ChunkKey(key, idx)] = unsyncedChunk{key: key, idx: idx, epoch: epoch, size: size}
		}
	}

	// insert (re)loads an object onto d+p distinct nodes drawn at random,
	// as the client draws its placement.
	insert := func(key string, size int64, now time.Duration) {
		dels, epoch, hotAdmit := table.BeginObject(key, size, d, total, 0, 0)
		for _, c := range dels {
			delete(nodes[c.Node].unsynced, c.Key)
		}
		gen := proxy.NewNodeSet(cfg.Nodes)
		chunk := chunkSize(size, d)
		for i, hint := range rng.Perm(cfg.Nodes)[:total] {
			store(key, i, hint, chunk, epoch, gen)
		}
		// Serving cost for storing d+p chunks (one invocation each).
		dur := lambdaemu.CeilBillingCycle(transferTime(chunk, bw))
		cost := float64(total)*costmodel.PricePerInvocation +
			float64(total)*dur.Seconds()*pool.MemoryGB*costmodel.PricePerGBSecond
		res.ServingCost += cost
		bucket(now).ServingCost += cost
		if hotAdmit {
			hotInsert(key, size)
		}
	}

	// reclaim models the provider killing one instance of a node: with a
	// synced peer the node survives (minus its unsynced delta);
	// otherwise everything on it is gone.
	reclaim := func(n int, now time.Duration) {
		res.Reclaims++
		bucket(now).Reclaims++
		ns := &nodes[n]
		if ns.replicas >= 2 && rng.Float64() >= cfg.CorrelatedWipeProb {
			ns.replicas = 1
			// The reclaimed replica takes the unsynced delta with it
			// half the time (it is the one that absorbed recent writes
			// with probability ~1/2).
			if rng.Intn(2) == 0 {
				return
			}
			for _, c := range ns.unsynced {
				table.MarkChunkLost(c.key, c.idx, n, c.epoch)
			}
		} else {
			// Sole replica gone: the node restarts empty.
			table.MarkNodeLost(n)
			ns.replicas = 1
		}
		clear(ns.unsynced)
	}

	// backupRound completes a delta-sync for every node: all surviving
	// chunks become synced, peers are (re)established, and the billed
	// duration covers the state scan plus the delta transfer.
	lastBackup := time.Duration(0)
	backupRound := func(now time.Duration) {
		for n := range nodes {
			var delta int64
			for _, c := range nodes[n].unsynced {
				delta += c.size
			}
			scan := time.Duration(float64(table.NodeUsed(n)) / metaScanRate * float64(time.Second))
			dur := lambdaemu.CeilBillingCycle(scan + transferTime(delta, bw))
			// Source and destination both bill for the round.
			cost := 2*costmodel.PricePerInvocation +
				2*dur.Seconds()*pool.MemoryGB*costmodel.PricePerGBSecond
			res.BackupCost += cost
			bucket(now).BackupCost += cost
			nodes[n].replicas = 2
			clear(nodes[n].unsynced)
		}
	}

	// Per-minute machinery: warm-up billing and reclaim events.
	warmCostPerMinute := pool.WarmupCost(cfg.WarmupInterval) / 60
	minute := 0
	advance := func(now time.Duration) {
		for next := time.Duration(minute+1) * time.Minute; next <= now; next = time.Duration(minute+1) * time.Minute {
			minute++
			res.WarmupCost += warmCostPerMinute
			bucket(next - time.Nanosecond).WarmupCost += warmCostPerMinute
			if cfg.ReclaimPolicy != nil {
				// Each reclaim event kills one *instance*; sampling with
				// replacement lets a burst minute (the Figure 9 tail)
				// take both replicas of the same node.
				r := cfg.ReclaimPolicy.Reclaims(minute, cfg.Nodes, rng)
				for i := 0; i < r; i++ {
					reclaim(rng.Intn(cfg.Nodes), next)
				}
			}
			if cfg.BackupInterval > 0 && next-lastBackup >= cfg.BackupInterval {
				backupRound(next)
				lastBackup = next
			}
		}
	}

	for _, rec := range trace.Records {
		advance(rec.Time)
		if rec.Op != workload.OpGet {
			continue
		}
		res.Gets++
		b := bucket(rec.Time)
		b.Gets++

		// Lookup sets the entry's CLOCK bit, on a hot hit too.
		o, mapped := table.Lookup(rec.Key)

		// Hot tier first, as in the live session: a resident entry is
		// served from proxy memory even when pool chunks were lost, and
		// costs nothing (no invocations, no node transfer).
		hotCapture := false
		if hot != nil {
			hit, capture := hot.Get(rec.Key)
			if hit {
				res.Hits++
				b.Hits++
				res.HotHits++
				b.HotHits++
				lat := lm.hotTier(o.Size)
				res.LatencySeconds = append(res.LatencySeconds, lat.Seconds())
				res.Sizes = append(res.Sizes, o.Size)
				continue
			}
			hotCapture = capture
		}

		present := 0
		for _, c := range o.Chunks {
			if c.Present {
				present++
			}
		}
		switch {
		case mapped && present >= d:
			// HIT (possibly degraded).
			res.Hits++
			b.Hits++
			lat := lm.infiniCache(o.Size, d, bw, present < total)
			res.LatencySeconds = append(res.LatencySeconds, lat.Seconds())
			res.Sizes = append(res.Sizes, o.Size)
			// Serving cost: every present chunk is one invocation.
			chunk := chunkSize(o.Size, d)
			dur := lambdaemu.CeilBillingCycle(transferTime(chunk, bw))
			n := float64(present)
			cost := n*costmodel.PricePerInvocation + n*dur.Seconds()*pool.MemoryGB*costmodel.PricePerGBSecond
			res.ServingCost += cost
			b.ServingCost += cost
			// Read-through tier admission: a ghost-warm GET captures the
			// first d data chunks as they stream through the proxy.
			if hotCapture && hot.Admits(o.Size) {
				hotInsert(rec.Key, o.Size)
			}
			// EC recovery: reconstruct and re-insert the lost chunks, each
			// from a random node as the client's repair SET draws it.
			for i, c := range o.Chunks {
				if c.Lost {
					res.Recoveries++
					b.Recoveries++
					store(rec.Key, i, rng.Intn(cfg.Nodes), chunk, o.Epoch, nil)
				}
			}
		case mapped:
			// Object lost: RESET from the backing store.
			res.Resets++
			b.Resets++
			lat := lm.s3(o.Size)
			res.LatencySeconds = append(res.LatencySeconds, lat.Seconds())
			res.Sizes = append(res.Sizes, o.Size)
			insert(rec.Key, o.Size, rec.Time)
		default:
			// Cold miss: load from the backing store and insert.
			res.ColdMisses++
			b.ColdMisses++
			lat := lm.s3(rec.Size)
			res.LatencySeconds = append(res.LatencySeconds, lat.Seconds())
			res.Sizes = append(res.Sizes, rec.Size)
			insert(rec.Key, rec.Size, rec.Time)
		}
	}
	return res
}

func chunkSize(size int64, d int) int64 {
	return (size + int64(d) - 1) / int64(d)
}

func transferTime(bytes int64, bw float64) time.Duration {
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}
