// Chaos soak: a 3-proxy deployment under a seeded schedule covering
// every fault class, with the tentpole invariants asserted end to end —
// zero corrupt bytes ever returned, zero lost keys once the faults
// clear, and a bounded virtual-time tail. Lives in package chaos_test
// because it needs both the Runner and a real core.Deployment (core
// sits above chaos, so the internal package would be an import cycle).
package chaos_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"infinicache/internal/chaos"
	"infinicache/internal/core"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/stats"
)

// soakSpec schedules all seven fault classes. The destructive events
// stay within the erasure budget (d=4, p=2): each key belongs to one
// proxy's node pool, so the two reclaims (different proxies) and the
// single rotted node cost any one object at most one chunk each — and
// client-side recovery re-inserts what the degraded reads reconstruct.
// The refuse window closes before the proxy crash so post-crash
// redials (and the final verification sweep) are clean.
//
// The 2% corrupt rule and the client refuse window are the realistic
// ones, but whether they hit is traffic-dependent: the corrupt rule's
// first virtual second is ~20 ms of real work and the refuse window
// silences the client for the other two, so roughly one run in ten
// rolls no hit; and the refuse window refuses nothing when no client
// happens to dial inside it. Both classes therefore also land by
// construction: a rate-1 corrupt rule and a refuse rule, each on the
// link of a function only this test invokes (soakCorruptProbe,
// soakRefuseProbe), once, after the last event has fired. Widening the
// 2% window instead is not an option — corruption overlapping the
// reclaims and the proxy crash exceeds what the repair plane heals
// (ROADMAP items 1/2).
const soakSpec = "0s:latency:*:2ms:5s," +
	"0s:corrupt:*:0.02:3s," +
	"0s:corrupt:" + soakCorruptProbe + ":1," +
	"0s:refuse:" + soakRefuseProbe + "," +
	"250ms:rot:p1-node2:0.4:2s," +
	"250ms:hangup:client:0.15:2s," +
	"1s:refuse:client:2s," +
	"3200ms:reclaim:p0-node0:all," +
	"3200ms:reclaim:p2-node5:all," +
	"4s:crashproxy:1"

// The probe functions' names, which tag their links.
const (
	soakCorruptProbe = "soak-probe-corrupt"
	soakRefuseProbe  = "soak-probe-refuse"
)

func TestChaosSoak(t *testing.T) {
	d, err := core.New(core.Config{
		Proxies:         3,
		NodesPerProxy:   8,
		NodeMemoryMB:    256,
		DataShards:      4,
		ParityShards:    2,
		TimeScale:       0.02, // 50x faster than wall clock
		ColdStartDelay:  20 * time.Millisecond,
		WarmInvokeDelay: 5 * time.Millisecond,
		Seed:            7,
		EnableRecovery:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clk := d.Clock()

	// A probe invocation dials a proxy through the platform's
	// fault-filtered network edge and writes one buffer.
	probed := make(chan error, 1)
	for _, name := range []string{soakCorruptProbe, soakRefuseProbe} {
		if _, err := d.Platform.Register(name, lambdaemu.FunctionConfig{MemoryMB: 128},
			func(ctx *lambdaemu.Context, _ []byte) {
				conn, err := ctx.Dial(d.Proxies[0].Addr())
				if err == nil {
					_, err = conn.Write(make([]byte, 64))
					conn.Close()
				}
				probed <- err
			}); err != nil {
			t.Fatal(err)
		}
	}
	probe := func(name string) error {
		if err := d.Platform.Invoke(name, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		select {
		case err := <-probed:
			return err
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never ran", name)
			return nil
		}
	}

	// Preload before any fault fires, with per-key deterministic bytes.
	const nKeys = 48
	values := make([][]byte, nKeys)
	for i := range values {
		size := 1024 << (i % 5) // 1 KiB .. 16 KiB
		b := make([]byte, size)
		rand.New(rand.NewSource(int64(i) + 1000)).Read(b)
		values[i] = b
		if err := cl.PutCtx(context.Background(), soakKey(i), b); err != nil {
			t.Fatalf("preload %s: %v", soakKey(i), err)
		}
	}

	sched, err := chaos.Parse(soakSpec)
	if err != nil {
		t.Fatal(err)
	}
	runner := chaos.New(sched, clk, d.Faults(), d.Platform, d)
	if err := runner.Start(); err != nil {
		t.Fatal(err)
	}
	schedDone := make(chan struct{})
	go func() { runner.Wait(); close(schedDone) }()

	// Sweep continuously while the schedule plays out. Errors are
	// availability outcomes (retried writes, refused dials, severed
	// conns) and tolerated mid-chaos; WRONG BYTES never are.
	var latencies []float64 // virtual milliseconds, successful GETs
	var sweepErrs int
	sweep := func() {
		for i := 0; i < nKeys; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			t0 := clk.Now()
			got, err := cl.GetCtx(ctx, soakKey(i))
			cancel()
			if err != nil {
				sweepErrs++
				continue
			}
			latencies = append(latencies, float64(clk.Since(t0))/float64(time.Millisecond))
			if !bytes.Equal(got, values[i]) {
				t.Fatalf("CORRUPT READ: key %s returned %d bytes not matching the %d written",
					soakKey(i), len(got), len(values[i]))
			}
		}
	}
	for running := true; running; {
		select {
		case <-schedDone:
			running = false
		default:
			sweep()
		}
	}
	if err := probe(soakCorruptProbe); err != nil {
		t.Fatalf("corrupt probe could not write: %v", err)
	}
	if err := probe(soakRefuseProbe); err == nil {
		t.Fatal("refuse probe dialled through its refuse rule")
	}
	runner.Stop()

	// Settle sweeps: post-crash redials, degraded reads, recovery
	// re-inserts for the reclaimed chunks.
	sweep()
	sweep()

	// Invariant 1: zero lost keys — every key readable and byte-exact
	// once the faults have cleared (bounded retries per key).
	for i := 0; i < nKeys; i++ {
		ok := false
		for attempt := 0; attempt < 12 && !ok; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			got, err := cl.GetCtx(ctx, soakKey(i))
			cancel()
			if err != nil {
				clk.Sleep(50 * time.Millisecond)
				continue
			}
			if !bytes.Equal(got, values[i]) {
				t.Fatalf("CORRUPT READ after faults cleared: key %s", soakKey(i))
			}
			ok = true
		}
		if !ok {
			t.Fatalf("LOST KEY: %s unreadable after 12 post-chaos attempts", soakKey(i))
		}
	}

	// Invariant 2: the schedule demonstrably ran. The direct-action
	// classes and the high-traffic link classes must land on every run;
	// the total class count has a floor rather than an exact pin
	// because low-rate classes (hangup at 5%) depend on how many writes
	// the real goroutine interleaving put inside their windows.
	rep := runner.Report()
	t.Logf("\n%s", rep)
	t.Logf("sweep errors tolerated mid-chaos: %d over %d successful GETs", sweepErrs, len(latencies))
	if rep.Reclaimed == 0 {
		t.Error("reclaim storm reclaimed no instances")
	}
	if rep.Severed == 0 {
		t.Error("proxy crash severed no connections")
	}
	if rep.Injected["corrupt"] == 0 || rep.Injected["latency"] == 0 || rep.Injected["refuse"] == 0 {
		t.Errorf("core link classes did not all land: %v", rep.Injected)
	}
	if got := rep.Classes(); got < 5 {
		t.Errorf("only %d fault classes landed, want >= 5\n%s", got, rep)
	}

	// Invariant 3: bounded tail. Virtual-time latencies inflate with
	// wall-clock compute (the 0.02 scale turns every real millisecond
	// into 50 virtual ones, and -race slows compute severalfold), so
	// this is a wedge detector, not a performance pin.
	sum := stats.Summarize(latencies)
	t.Logf("GET latency (virtual ms): %s", sum)
	if sum.P99 > float64(15*time.Second/time.Millisecond) {
		t.Errorf("p99 GET latency %0.1fms exceeds the 15s wedge bound", sum.P99)
	}
}

func soakKey(i int) string { return fmt.Sprintf("chaos-soak-%03d", i) }
