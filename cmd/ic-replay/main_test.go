package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"infinicache/internal/exps"
	"infinicache/internal/sim"
)

// TestSimulateGolden pins the -backend sim block against outputs of the
// standalone simulator command this backend replaced, captured from the
// "InfiniCache (" line down at the flag sets named in each case.
func TestSimulateGolden(t *testing.T) {
	cases := []struct {
		golden      string
		hours       int
		largeOnly   bool
		cfg         sim.Config
		hot, hotMax int64
	}{
		{ // -hours 50 -nodes 400
			golden: "hours50-nodes400", hours: 50,
			cfg: sim.Config{Nodes: 400, NodeMemoryMB: 1536, DataShards: 10, ParityShards: 2,
				WarmupInterval: time.Minute, BackupInterval: 5 * time.Minute, Seed: 1},
		},
		{ // -hours 2 -nodes 20 -hot 67108864 -hot-max 2097152
			golden: "hours2-hot", hours: 2, hot: 64 << 20, hotMax: 2 << 20,
			cfg: sim.Config{Nodes: 20, NodeMemoryMB: 1536, DataShards: 10, ParityShards: 2,
				WarmupInterval: time.Minute, BackupInterval: 5 * time.Minute, Seed: 1},
		},
		{ // -hours 1 -nodes 20 -large-only -d 4 -p 2 -backup 0 -warm 30s -seed 7
			golden: "hours1-large-only", hours: 1, largeOnly: true,
			cfg: sim.Config{Nodes: 20, NodeMemoryMB: 1536, DataShards: 4, ParityShards: 2,
				WarmupInterval: 30 * time.Second, Seed: 7},
		},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			trace := exps.CanonicalTrace(c.hours, c.cfg.Seed)
			if c.largeOnly {
				trace = trace.LargeOnly()
			}
			c.cfg.ReclaimPolicy = exps.CanonicalPolicy()
			var got bytes.Buffer
			simulate(&got, trace, c.cfg, c.hot, c.hotMax)
			if got.String() != string(want) {
				t.Fatalf("sim block differs from %s.golden\ngot:\n%s\nwant:\n%s", c.golden, got.String(), want)
			}
		})
	}
}

func TestCheckFlagsRefusesIgnoredFlag(t *testing.T) {
	set := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("ic-replay", flag.ContinueOnError)
		fs.Int64("size-cap", 0, "")
		fs.Int("nodes", 20, "")
		fs.Int64("seed", 1, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	for _, c := range []struct {
		args    []string
		backend string
		refused string // flag named in the error, "" if accepted
	}{
		{[]string{"-size-cap", "1"}, "sim", "-size-cap"},
		{[]string{"-size-cap", "1"}, "dummy", ""},
		{[]string{"-nodes", "400"}, "sim", ""},
		{[]string{"-nodes", "400"}, "redis", "-nodes"},
		{[]string{"-seed", "7"}, "sim", ""},
		{nil, "memcached", "memcached"},
	} {
		err := checkFlags(set(c.args...), c.backend)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%v -backend %s: %v", c.args, c.backend, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%v -backend %s: err = %v, want one naming %s", c.args, c.backend, err, c.refused)
		}
	}
}
