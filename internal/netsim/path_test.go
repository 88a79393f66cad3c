package netsim_test

import (
	"testing"
	"time"

	"infinicache/internal/lambdaemu"
	"infinicache/internal/netsim"
	"infinicache/internal/vclock"
)

// TestPathLatencyOnScaledClock pins the emulated link to the time it
// models: at a 0.1 scale the 500 µs intra-VPC latency is 50 µs of wall
// time, where the runtime timer alone would round it up to ~1.08 ms.
func TestPathLatencyOnScaledClock(t *testing.T) {
	p := &netsim.Path{Clock: vclock.NewScaled(0.1), Latency: lambdaemu.DefaultNetworkLatency}
	const n = 100
	start := time.Now()
	for range n {
		p.Transfer(1)
	}
	if avg := time.Since(start) / n; avg > 200*time.Microsecond {
		t.Fatalf("Transfer(1) took %v of wall time on average, want ~50µs", avg)
	}
}
