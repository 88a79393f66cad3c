// ic-repro regenerates the tables and figures of the paper's
// evaluation, plus this repo's batch and hot-tier probes: one text
// report per row of exps.Table, simulated (trace replays, analytical
// models) and live (a real in-process deployment timed on the wall
// clock) alike.
//
// Usage:
//
//	ic-repro [-fig all|1|4|8|9|11|11f|12|13|14|15|16|17|table1|availability|batch|hot]
//	         [-out results|-] [-hours 50] [-samples 5] [-quick] [-seed 1]
//
// -out names the directory the reports are written to; "-" prints them
// to stdout instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"infinicache/internal/exps"
	"infinicache/internal/gf256"
)

func main() {
	fig := flag.String("fig", "all", "which experiment to run (a Table name, or all)")
	out := flag.String("out", "results", "output directory, or - for stdout")
	hours := flag.Int("hours", exps.TraceHours, "trace replay length in hours")
	samples := flag.Int("samples", 0, "samples per cell / rounds per probe (0: 5, or 3 with -quick)")
	quick := flag.Bool("quick", false, "smaller live grids, fewer samples")
	seed := flag.Int64("seed", 1, "base random seed")
	flag.Parse()

	p := exps.DefaultParams()
	if *quick {
		p = exps.QuickParams()
	}
	p.Seed, p.Hours = *seed, *hours
	if *samples > 0 {
		p.Samples = *samples
	}

	// The selected GF(256) kernel dominates EC encode/decode throughput,
	// so every run records it next to its numbers.
	fmt.Printf("gf256 kernel: %s\n", gf256.Kernel())

	if *out != "-" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	ran := false
	for _, e := range exps.Table {
		if *fig != "all" && !strings.EqualFold(*fig, e.Name) {
			continue
		}
		ran = true
		report := e.Run(p)
		if *out == "-" {
			fmt.Println(report)
			continue
		}
		path := filepath.Join(*out, e.File)
		if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if !ran {
		log.Fatalf("unknown -fig %q; see the usage line in the package comment", *fig)
	}
}
