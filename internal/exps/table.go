package exps

// Params is the one set of inputs every experiment reads. A simulated
// experiment uses Seed and Hours; a live one uses Seed and the sizing
// fields below. Experiments ignore what they do not need.
type Params struct {
	Seed  int64
	Hours int // trace length the simulated experiments replay

	Samples      int      // GETs per cell (Figures 4, 11, 11f), rounds per probe
	MemoriesMB   []int    // Figure 11 Lambda sizes (paper: 128..3008)
	Codes        [][2]int // Figure 11 RS (d,p) pairs (paper: 10+0,10+1,10+2,10+4,4+2,5+1)
	SizesMB      []int    // Figure 11/11f object sizes (paper: 10..100)
	Clients      []int    // Figure 12 concurrent-client counts
	PointSeconds int      // Figure 12 measurement window per count
	BatchKeys    int      // batch probe: keys per MGet/MPut
	HotKeys      int      // hot-tier probe: keys per round
}

// DefaultParams is the full-length reproduction: the 50-hour replay and
// the Figure 11 grid trimmed to the qualitative knee points.
func DefaultParams() Params {
	return Params{
		Seed:         1,
		Hours:        TraceHours,
		Samples:      5,
		MemoriesMB:   []int{256, 512, 1024, 3008},
		Codes:        [][2]int{{10, 0}, {10, 1}, {10, 2}, {10, 4}, {4, 2}, {5, 1}},
		SizesMB:      []int{10, 40, 100},
		Clients:      []int{1, 2, 4, 8},
		PointSeconds: 2,
		BatchKeys:    24,
		HotKeys:      16,
	}
}

// QuickParams shrinks the live grids (ic-repro -quick); the trace length
// stays the caller's choice.
func QuickParams() Params {
	p := DefaultParams()
	p.Samples = 3
	p.MemoriesMB = []int{512, 1024}
	p.Codes = [][2]int{{10, 1}, {10, 2}, {4, 2}}
	p.SizesMB = []int{10, 40}
	p.BatchKeys = 8
	p.HotKeys = 6
	return p
}

// Experiment is one row of the reproduction: what cmd/ic-repro selects
// with -fig, where its report goes, and what that report must contain.
type Experiment struct {
	Name string // -fig selector
	File string // report file name under -out
	// Live experiments build a real deployment and measure wall-clock
	// time; the rest replay a trace through internal/sim or evaluate a
	// model, and finish in seconds.
	Live    bool
	Run     func(Params) string
	Markers []string // substrings the report must contain
}

// Table lists every experiment, in the paper's order with this repo's
// two probes last.
var Table = []Experiment{
	{"1", "figure01_trace.txt", false, Figure1,
		[]string{"object-size CDF", "access-count CDF", "reuse-interval CDF", "WSS"}},
	{"4", "figure04_vm_contention.txt", true, Figure4,
		[]string{"pool"}},
	{"8", "figure08_reclaim_timeline.txt", false, Figure8,
		[]string{"9min warmup", "Poisson 36/h"}},
	{"9", "figure09_reclaim_distribution.txt", false, Figure9,
		[]string{"Zipf regime", "Poisson regime"}},
	{"11", "figure11_microbenchmark.txt", true, Figure11,
		[]string{"(4+2)"}},
	{"11f", "figure11f_vs_elasticache.txt", true, Figure11f,
		[]string{"EC 10-node p50", "10MB"}},
	{"12", "figure12_scalability.txt", true, Figure12,
		[]string{"GB/s"}},
	{"13", "figure13_cost.txt", false, Figure13,
		[]string{"ElastiCache", "InfiniCache (all objects)", "cost effectiveness", "backup+warm-up share"}},
	{"14", "figure14_fault_tolerance.txt", false, Figure14,
		[]string{"RESETs", "availability"}},
	{"15", "figure15_latency_cdf.txt", false, Figure15,
		[]string{"InfiniCache", "AWS S3"}},
	{"16", "figure16_normalized_latency.txt", false, Figure16,
		[]string{"<1MB", ">=100MB", "ElastiCache"}},
	{"17", "figure17_cost_crossover.txt", false, Figure17,
		[]string{"crossover"}},
	{"table1", "table1_hit_ratios.txt", false, Table1,
		[]string{"All objects", "Large obj. only", "EC hit", "IC w/o backup"}},
	{"availability", "availability_model.txt", false, AvailabilityAnalysis,
		[]string{"p3/p4", "hourly avail"}},
	{"batch", "probe_batch.txt", true, BatchProbe,
		[]string{"PUT x keys", "GET x keys", "frames/flush"}},
	{"hot", "probe_hot_tier.txt", true, HotTierProbe,
		[]string{"hot (tier)", "hits"}},
}
