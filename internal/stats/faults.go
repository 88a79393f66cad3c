package stats

import "fmt"

// FaultCounters is a plain snapshot of the fault/recovery plane: what
// the chaos scheduler injected and what the defence layers (checksums,
// hedged reads, breakers, EC repair) did about it. Producers (the proxy
// stats block, the chaos runner, the client) fill one by copying their
// atomic counters; this package only holds and renders the numbers, so
// the zero-dependency contract above is preserved.
type FaultCounters struct {
	// Injection side.
	FaultsInjected int64 // link-level faults the netsim engine applied
	Reclaims       int64 // instances killed by reclaim storms
	SeveredConns   int64 // connections cut by proxy crashes

	// Defence side.
	ChecksumFailures int64 // frames whose CRC32-C disagreed with the carried sum
	CorruptChunks    int64 // chunks escalated to positive loss after repeat CRC strikes
	HedgedGets       int64 // extra chunk requests issued by the hedge timer or on failure
	HedgeWins        int64 // hedged requests whose reply was forwarded to the client
	BreakerTrips     int64 // per-node circuit-breaker open transitions
	DegradedGets     int64 // GETs served with fewer than d primary chunks
	Recoveries       int64 // client-side EC reconstructions
	Repairs          int64 // recovered chunks re-inserted into the pool
}

// Table renders the counters as the aligned two-column table the replay
// harness prints in its post-run fault report.
func (c FaultCounters) Table() string {
	rows := [][]string{
		{"faults injected (link)", fmt.Sprint(c.FaultsInjected)},
		{"instances reclaimed", fmt.Sprint(c.Reclaims)},
		{"conns severed", fmt.Sprint(c.SeveredConns)},
		{"checksum failures", fmt.Sprint(c.ChecksumFailures)},
		{"corrupt chunks lost", fmt.Sprint(c.CorruptChunks)},
		{"hedged requests", fmt.Sprint(c.HedgedGets)},
		{"hedge wins", fmt.Sprint(c.HedgeWins)},
		{"breaker trips", fmt.Sprint(c.BreakerTrips)},
		{"degraded GETs", fmt.Sprint(c.DegradedGets)},
		{"EC recoveries", fmt.Sprint(c.Recoveries)},
		{"chunk repairs", fmt.Sprint(c.Repairs)},
	}
	return Table([]string{"fault/recovery counter", "count"}, rows)
}
