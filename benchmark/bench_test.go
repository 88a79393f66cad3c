package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the spec in spec.go; regenerate it with `bash benchmark/run.sh -spec > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// probeMetrics must be measured (non-zero) in every traced run.
var probeMetrics = []string{
	"gf256.mulsources_gbps", "gf256.xor_gbps", "ec.encode_8MiB_us", "ec.encode_4KiB_us",
	"ec.reconstruct2_8MiB_us", "ec.reconstruct1_4KiB_us", "bufpool.getput_1MiB_ns",
	"protocol.roundtrip_1KiB_ns", "protocol.roundtrip_1MiB_us", "protocol.sendprebuilt_10x400B_ns",
	"protocol.chunksum_gbps", "protocol.planrange_ns", "hashring.locate_ns", "clockcache.touch_ns",
	"clockcache.add_evict_ns", "client.null_get_4KiB_us", "client.null_put_4KiB_us", "client.null_put_8MiB_us",
	"client.mget16_4KiB_us", "client.mput16_4KiB_us", "client.putreader_mib_per_s",
	"proxy.raw_get_4KiB_us", "proxy.raw_hotget_4KiB_us", "harness.op_overhead_ns", "harness.replay_overhead_us",
}

// TestWorkloadsTraced runs every workload briefly with tracing on and
// checks what it emits; afterwards every stack must be fully closed.
// The workloads run one after the other, as they do in the benchmark,
// and the layer probes, which are the same in every traced run, once.
func TestWorkloadsTraced(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	known := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		known[d.Name] = true
	}
	dir := t.TempDir()

	for i, w := range workloadDefs {
		name := w.Name
		t.Run(name, func(t *testing.T) {
			if raceEnabled && name == "trace_hour" {
				t.Skip("on a clock compressed 100x the race detector's tenfold slowdown is the emulated stack's request timeout")
			}
			spans := filepath.Join(dir, name+".json")
			run := runStack
			if i == 0 {
				run = runWorkload // with the probes
			}
			r, err := run(name, 1, 0.5, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("wall time per phase: %v", r.PhaseWall)
			if r.Mismatches != 0 || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("mismatches=%d attempted=%d failed=%d first error: %s", r.Mismatches, r.Attempted, r.Failed, r.FirstError)
			}
			for got := range r.Metrics {
				if !known[got] {
					t.Errorf("emits %s, which BENCHMARK.json does not name", got)
				}
			}
			value := func(n string) float64 { return r.Metrics[n].Value }
			positive := func(names ...string) {
				t.Helper()
				for _, n := range names {
					if value(n) <= 0 {
						t.Errorf("%s = %v, want > 0", n, value(n))
					}
				}
			}
			zero := func(names ...string) {
				t.Helper()
				for _, n := range names {
					if value(n) != 0 {
						t.Errorf("%s = %v, want 0", n, value(n))
					}
				}
			}
			for _, d := range endToEndDefs {
				positive(d.Name)
			}

			if i == 0 {
				positive(probeMetrics...)
				if !r.Correct {
					t.Error("a run without byte mismatches is not marked correct")
				}
				var line struct {
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
					t.Fatal(err)
				}
				if len(line.Metrics) != len(perLayerDefs) {
					t.Errorf("result line has %d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayerDefs))
				}
				for _, d := range perLayerDefs {
					if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("result line: %s missing or unit %q != %q", d.Name, m.Unit, d.Unit)
					}
				}
			}

			if name == "trace_hour" {
				positive("lambdaemu.cost_usd_per_hour", "lambdaemu.invocations_per_hour", "lambdaemu.billed_over_raw",
					"proxy.invokes_per_get", "replay.inserts", "proc.cpu_ms_per_record")
				return
			}
			positive("client.send_get_us", "client.finish_get_us", "client.send_put_us", "node.window_put_us",
				"node.serve_us", "protocol.client_flushes_per_op", "protocol.client_writes_per_op",
				"proc.allocs_per_op", "trace.overhead_ratio")
			if value("node.requests_per_put") != dataShards+parityShards {
				t.Errorf("node.requests_per_put = %v, want %d", value("node.requests_per_put"), dataShards+parityShards)
			}
			switch name {
			case "small_hot":
				positive("proxy.hot_hit_ratio", "proxy.hot_us")
			case "large_rw":
				positive("client.send_range_us", "client.range_p50_us")
				if value("node.requests_per_range") != 2 {
					t.Errorf("node.requests_per_range = %v, want exactly 2 shard fetches", value("node.requests_per_range"))
				}
				fallthrough
			case "small_cold":
				zero("proxy.hot_hit_ratio", "proxy.hot_evictions_per_kop", "proxy.hot_us")
				// A GET returns on its d-th chunk: on a busy machine the last of
				// the d+p requests reach their nodes after the op has ended.
				if n := value("node.requests_per_get"); n < dataShards || n > dataShards+parityShards {
					t.Errorf("node.requests_per_get = %v, want %d to %d", n, dataShards, dataShards+parityShards)
				}
			}
			checkStagesSum(t, spans)
		})
	}

	// Every stack is closed: nothing the workloads started may still run.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines leaked:\n%s", n-goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// checkStagesSum reads a span file back and checks that the stages of
// every op partition it: contiguous, and summing to the op's latency.
func checkStagesSum(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	ops := map[int]span{}
	sum := map[int]int64{}
	end := map[int]int64{}
	for _, s := range spans {
		switch {
		case s.Parent == 0:
			ops[s.ID] = s
			end[s.ID] = s.Start
		case s.Parent == s.Op: // a stage; node.serve spans hang off node.window
			if s.Start != end[s.Op] || s.End < s.Start {
				t.Fatalf("op %d: stage %s [%d,%d] does not continue from %d", s.Op, s.Name, s.Start, s.End, end[s.Op])
			}
			end[s.Op] = s.End
			sum[s.Op] += s.End - s.Start
		}
	}
	if len(ops) == 0 {
		t.Fatal("no traced ops")
	}
	for id, op := range ops {
		if sum[id] != op.End-op.Start {
			t.Fatalf("op %d (%s): stages sum to %d ns, op latency is %d ns", id, op.Name, sum[id], op.End-op.Start)
		}
	}
}

func TestVerifierCatchesFlippedByte(t *testing.T) {
	const size = 4096
	base := contentBase(5, 3)
	for _, tc := range []struct {
		name   string
		flip   int
		full   bool
		caught bool
	}{
		{"head", 3, false, true},
		{"tail", size - 2, false, true},
		{"middle, stamps only", size / 2, false, false},
		{"middle, full compare", size / 2, true, true},
	} {
		got := append([]byte(nil), wholeValue(base, size)...)
		got[tc.flip] ^= 0x40
		var v verifier
		v.reset(base, 0, size, tc.full)
		// In shard-sized pieces, as Object.WriteTo delivers them.
		for off := 0; off < size; off += 410 {
			v.Write(got[off:min(off+410, size)])
		}
		if caught := v.err() != nil; caught != tc.caught {
			t.Errorf("%s: caught=%v, want %v", tc.name, caught, tc.caught)
		}
	}
	var v verifier
	v.reset(base, 0, size, true)
	v.Write(wholeValue(base, size)[:size-1])
	if v.err() == nil {
		t.Error("a short read passed verification")
	}
	v.reset(contentBase(5, 4), 0, size, false)
	v.Write(wholeValue(base, size))
	if v.err() == nil {
		t.Error("the previous version of a key passed verification")
	}
}

// TestWrongBytesFailTheOp overwrites a key behind the generator's back:
// the next GET returns bytes that are not the version the generator
// wrote, which must count as a failed op and a byte mismatch.
func TestWrongBytesFailTheOp(t *testing.T) {
	ctx := context.Background()
	def := closedDef{Mix: mix{KeysPerClient: 1, ObjSize: 4 << 10}} // every op is a GET of the one key
	s, gens, err := setupClosed(ctx, def, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gens[0]
	g.recorder = &recorder{}
	g.one(ctx, clientTarget{s.clients[0]}, &def.Mix, nil)
	if !g.samples[0].ok || g.mismatches != 0 {
		t.Fatalf("clean GET failed: %v", g.firstErr)
	}
	if err := s.clients[0].PutCtx(ctx, g.keys[0], wholeValue(contentBase(g.keyIdx(0), 9), def.Mix.ObjSize)); err != nil {
		t.Fatal(err)
	}
	g.one(ctx, clientTarget{s.clients[0]}, &def.Mix, nil)
	if g.samples[1].ok || g.mismatches != 1 || g.firstErr == nil || !strings.Contains(g.firstErr.Error(), "mismatch") {
		t.Fatalf("wrong bytes went unnoticed: ok=%v mismatches=%d err=%v", g.samples[1].ok, g.mismatches, g.firstErr)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lowerIsBetter := metricDef{Name: "get_p50_us", Better: "lower", Guard: 0.10}
	higherIsBetter := metricDef{Name: "ops_per_s", Better: "higher", Guard: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Guard: 0.30}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99} }
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want verdict
	}{
		{lowerIsBetter, steady(100), steady(109), verdictOK},
		{lowerIsBetter, steady(100), steady(111), verdictWorse},
		{lowerIsBetter, steady(100), steady(50), verdictOK},
		{lowerIsBetter, steady(100), []float64{150}, verdictUnresolved},                     // one run has no spread
		{lowerIsBetter, []float64{90, 100, 100, 115}, steady(150), verdictUnresolved},       // a's own runs spread wider than the bound
		{lowerIsBetter, steady(100), []float64{100, 150, 170, 180, 150}, verdictUnresolved}, // and b's
		{lowerIsBetter, []float64{97, 100, 100, 103}, steady(150), verdictWorse},
		{higherIsBetter, steady(100), steady(89), verdictWorse},
		{higherIsBetter, steady(100), steady(120), verdictOK},
		{setup, steady(0.03), steady(0.06), verdictOK}, // doubled, but by 30 ms
		{setup, steady(1.0), steady(1.6), verdictWorse},
	} {
		if got, _ := judge(tc.d, newSide(tc.a), newSide(tc.b)); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
