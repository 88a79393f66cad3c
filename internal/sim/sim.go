// Package sim is the discrete-event replayer behind the production-trace
// experiments (§5.2): it replays a 50-hour workload against a modeled
// InfiniCache deployment, an ElastiCache instance, and bare S3 in
// virtual time, producing the hit ratios of Table 1, the cost timelines
// of Figure 13, the fault-tolerance activity of Figure 14, and the
// latency distributions of Figures 15 and 16.
//
// The simulator shares its policy code with the live system: the same
// CLOCK eviction and the same hot-tier policy object (internal/clockcache:
// Cache, Tier), the same reclaim policies (internal/lambdaemu), the same
// pricing (internal/costmodel), and the same EC geometry rules.
package sim

import (
	"math/rand"
	"time"

	"infinicache/internal/clockcache"
	"infinicache/internal/costmodel"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/netsim"
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

// objState tracks one cached object.
type objState struct {
	size   int64
	nodes  []int  // chunk -> node
	lost   []bool // chunk destroyed by reclamation
	synced []bool // chunk covered by the last completed backup round
}

func (o *objState) presentChunks() int {
	n := 0
	for _, l := range o.lost {
		if !l {
			n++
		}
	}
	return n
}

// nodeState tracks one Lambda cache node in the model.
type nodeState struct {
	used     int64
	replicas int // 1 = primary only, 2 = primary + synced peer
	// chunks maps object key -> chunk index resident on this node
	// (placement never puts two chunks of one object on one node).
	chunks map[string]int
	// delta is the bytes written since the node's last completed backup
	// (the delta-sync payload).
	delta int64
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

	nodeCap := int64(cfg.NodeMemoryMB) << 20
	nodes := make([]nodeState, cfg.Nodes)
	for i := range nodes {
		nodes[i] = nodeState{replicas: 1, chunks: make(map[string]int)}
	}
	objects := make(map[string]*objState)
	lru := clockcache.New()
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
	// data chunks (hotInsert), as live.
	var hot *clockcache.Tier
	if cfg.HotTierBytes > 0 {
		hot = clockcache.NewTier(cfg.HotTierBytes, cfg.HotMaxObjectBytes)
	}
	hotInsert := func(key string, size int64) {
		hot.Insert(key, chunkSize(size, d)*int64(d))
	}

	// Pool-level accounting (§3.2: eviction triggers on pool pressure).
	poolCap := nodeCap * int64(cfg.Nodes)
	var poolUsed int64

	// dropObject releases an object's accounting. As in the live proxy,
	// every mapping-entry drop also invalidates the hot tier.
	drop := func(key string) {
		if hot != nil {
			hot.Invalidate(key)
		}
		o := objects[key]
		if o == nil {
			return
		}
		chunk := chunkSize(o.size, d)
		for i, n := range o.nodes {
			if !o.lost[i] {
				nodes[n].used -= chunk
				poolUsed -= chunk
				delete(nodes[n].chunks, key)
				if !o.synced[i] {
					nodes[n].delta -= chunk
				}
			}
		}
		delete(objects, key)
		lru.Remove(key)
	}

	// insert places a (re)loaded object on random distinct nodes,
	// evicting cold objects while the pool lacks free memory (§3.2:
	// pool-level eviction at object granularity).
	insert := func(key string, size int64, now time.Duration) {
		if o := objects[key]; o != nil {
			drop(key)
		}
		// Write-through tier admission: BeginPut invalidates before any
		// chunk lands and decides admission.
		hotAdmit := false
		if hot != nil {
			hotAdmit = hot.BeginPut(key, size)
		}
		chunk := chunkSize(size, d)
		need := chunk * int64(total)
		for poolUsed+need > poolCap && lru.Len() > 0 {
			victim := lru.Evict()
			if victim == nil {
				break
			}
			if victim.Key == key {
				lru.Add(victim.Key, victim.Size)
				if lru.Len() == 1 {
					break
				}
				continue
			}
			drop(victim.Key)
		}
		placement := rng.Perm(cfg.Nodes)[:total]
		for i, n := range placement {
			nodes[n].used += chunk
			nodes[n].chunks[key] = i
			nodes[n].delta += chunk
		}
		poolUsed += need
		o := &objState{
			size:   size,
			nodes:  placement,
			lost:   make([]bool, total),
			synced: make([]bool, total),
		}
		objects[key] = o
		lru.Add(key, size)
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

	// reclaimNode models the provider killing one instance of a node:
	// with a synced peer the node survives (minus its unsynced delta);
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
			for key, i := range ns.chunks {
				o := objects[key]
				if o == nil || o.lost[i] || o.synced[i] {
					continue
				}
				chunk := chunkSize(o.size, d)
				o.lost[i] = true
				ns.used -= chunk
				poolUsed -= chunk
				delete(ns.chunks, key)
			}
			ns.delta = 0
			return
		}
		// Sole replica gone: the node restarts empty.
		for key, i := range ns.chunks {
			o := objects[key]
			if o == nil || o.lost[i] {
				continue
			}
			chunk := chunkSize(o.size, d)
			o.lost[i] = true
			ns.used -= chunk
			poolUsed -= chunk
		}
		ns.chunks = make(map[string]int)
		ns.delta = 0
		ns.replicas = 1
	}

	// backupRound completes a delta-sync for every node: all surviving
	// chunks become synced, peers are (re)established, and the billed
	// duration covers the state scan plus the delta transfer.
	lastBackup := time.Duration(0)
	backupRound := func(now time.Duration) {
		for n := range nodes {
			scan := time.Duration(float64(nodes[n].used) / metaScanRate * float64(time.Second))
			xfer := transferTime(nodes[n].delta, bw)
			dur := lambdaemu.CeilBillingCycle(scan + xfer)
			// Source and destination both bill for the round.
			cost := 2*costmodel.PricePerInvocation +
				2*dur.Seconds()*pool.MemoryGB*costmodel.PricePerGBSecond
			res.BackupCost += cost
			bucket(now).BackupCost += cost
			nodes[n].replicas = 2
			nodes[n].delta = 0
		}
		for _, o := range objects {
			for i := range o.synced {
				if !o.lost[i] {
					o.synced[i] = true
				}
			}
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

		// Hot tier first, as in the live session: a resident entry is
		// served from proxy memory even when pool chunks were lost, and
		// costs nothing (no invocations, no node transfer).
		hotCapture := false
		if hot != nil {
			hit, capture := hot.Get(rec.Key)
			if hit {
				o := objects[rec.Key]
				size := rec.Size
				if o != nil {
					size = o.size
				}
				res.Hits++
				b.Hits++
				res.HotHits++
				b.HotHits++
				lru.Touch(rec.Key)
				lat := lm.hotTier(size)
				res.LatencySeconds = append(res.LatencySeconds, lat.Seconds())
				res.Sizes = append(res.Sizes, size)
				continue
			}
			hotCapture = capture
		}

		o := objects[rec.Key]
		switch {
		case o != nil && o.presentChunks() >= d:
			// HIT (possibly degraded).
			res.Hits++
			b.Hits++
			lru.Touch(rec.Key)
			missing := total - o.presentChunks()
			lat := lm.infiniCache(o.size, d, bw, missing > 0)
			res.LatencySeconds = append(res.LatencySeconds, lat.Seconds())
			res.Sizes = append(res.Sizes, o.size)
			// Serving cost: every present chunk is one invocation.
			chunk := chunkSize(o.size, d)
			dur := lambdaemu.CeilBillingCycle(transferTime(chunk, bw))
			n := float64(o.presentChunks())
			cost := n*costmodel.PricePerInvocation + n*dur.Seconds()*pool.MemoryGB*costmodel.PricePerGBSecond
			res.ServingCost += cost
			b.ServingCost += cost
			// Read-through tier admission: a ghost-warm GET captures the
			// first d data chunks as they stream through the proxy.
			if hotCapture && hot.Admits(o.size) {
				hotInsert(rec.Key, o.size)
			}
			if missing > 0 {
				// EC recovery: reconstruct and re-insert lost chunks.
				res.Recoveries += missing
				b.Recoveries += missing
				for i := range o.lost {
					if o.lost[i] {
						n := rng.Intn(cfg.Nodes)
						// Avoid nodes already holding a chunk of this
						// object (placement keeps chunks on distinct
						// nodes).
						for tries := 0; tries < 8; tries++ {
							if _, dup := nodes[n].chunks[rec.Key]; !dup {
								break
							}
							n = rng.Intn(cfg.Nodes)
						}
						o.nodes[i] = n
						o.lost[i] = false
						o.synced[i] = false
						nodes[n].used += chunk
						nodes[n].chunks[rec.Key] = i
						nodes[n].delta += chunk
						poolUsed += chunk
					}
				}
			}
		case o != nil:
			// Object lost: RESET from the backing store.
			res.Resets++
			b.Resets++
			lat := lm.s3(o.size)
			res.LatencySeconds = append(res.LatencySeconds, lat.Seconds())
			res.Sizes = append(res.Sizes, o.size)
			size := o.size
			drop(rec.Key)
			insert(rec.Key, size, rec.Time)
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
