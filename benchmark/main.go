// Command benchmark is the repo's benchmark: four workloads, end-to-end
// metrics measured untraced, and per-layer metrics from layer probes,
// public counters and an outside-in stage ledger. See README.md.
//
//	benchmark --workload small_cold --seed 1 --seconds 20 --trace 0
//	benchmark -workload all -seed 1 -json out.json
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"infinicache/internal/gf256"
)

// header identifies the machine and build a result came from; results
// whose headers differ in anything but Commit and Time do not compare.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"gf256_kernel"`
	Time       string `json:"time"`
}

func newHeader() header {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     gf256.Kernel(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// runFile is what -json writes and -compare reads.
type runFile struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

func writeRunFile(path string, f *runFile) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayerDefs
	}
	return endToEndDefs
}

// report prints every metric of the run by name with its unit.
func report(h header, r *result) {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v commit=%s %s nproc=%d gomaxprocs=%d gf256=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Kernel)
	var phases []string
	for name, s := range r.PhaseWall {
		phases = append(phases, fmt.Sprintf("%s=%.1fs", name, s))
	}
	sort.Strings(phases)
	fmt.Printf("# wall: %s\n", strings.Join(phases, " "))
	for _, d := range defsFor(r.Trace) {
		s := r.Metrics[d.Name]
		line := fmt.Sprintf("%-36s %14.4f %-6s", d.Name, s.Value, d.Unit)
		switch {
		case len(s.Windows) > 0:
			line += fmt.Sprintf(" IQR %5.1f%% of %d windows", 100*s.Spread, len(s.Windows))
		case s.Pooled:
			line += " pooled over the run"
		}
		if s.Samples > 0 {
			line += fmt.Sprintf(" n=%d", s.Samples)
		}
		fmt.Println(line)
	}
	if len(r.Ledger) > 0 {
		fmt.Println("# stage ledger: share of op latency")
		for _, kind := range kindNames {
			var parts []string
			for _, st := range append(stageNames[:], "proxy.hot") {
				if share, ok := r.Ledger[kind+"/"+st]; ok {
					parts = append(parts, fmt.Sprintf("%s %.1f%%", st, 100*share))
				}
			}
			if len(parts) > 0 {
				fmt.Printf("#   %-5s %s\n", kind, strings.Join(parts, " | "))
			}
		}
	}
	fmt.Printf("# attempted=%d failed=%d byte_mismatches=%d\n", r.Attempted, r.Failed, r.Mismatches)
	if r.FirstError != "" {
		fmt.Printf("# first error: %s\n", r.FirstError)
	}
}

// contractLine is the last line of standard output: the driver's JSON.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defsFor(r.Trace) {
		out.Metrics[d.Name] = value{r.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// runAll runs every workload untraced `runs` times and traced once,
// each run in its own process so peak memory and CPU are per workload.
// -compare takes a workload's value as the median of its untraced runs
// and their spread as what it cannot resolve. The runs go round the
// workloads, so a workload's runs lie minutes apart: the box has slow
// spells of a few minutes, and three runs in a row would all fall into
// one and agree with each other.
func runAll(seed int64, seconds float64, runs int, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp := filepath.Join(buildDir, fmt.Sprintf("all-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	all := &runFile{Header: newHeader()}
	for i := 0; i <= runs; i++ {
		trace := "0"
		if i == runs {
			trace = "1"
		}
		for _, w := range workloadDefs {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.Name, i))
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-json", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s trace=%s: %w", w.Name, trace, err)
			}
			f, err := readRunFile(part)
			if err != nil {
				return err
			}
			all.Results = append(all.Results, f.Results...)
		}
	}
	if jsonOut != "" {
		return writeRunFile(jsonOut, all)
	}
	return nil
}

// buildDir is where run.sh builds and where run outputs go by default;
// it is relative to the working directory, the root of the checkout.
const buildDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated calls")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (probes, counters, traced pass)")
	runs := flag.Int("runs", 3, "with -workload all: untraced runs of each workload; -compare wants at least 3 a side")
	jsonOut := flag.String("json", "", "also write the full result (windows, spreads, header) to this file")
	traceOut := flag.String("spans", "", "file for the traced pass's spans (default "+buildDir+"/trace_<workload>.json)")
	compare := flag.Bool("compare", false, "compare two -json files: -compare a.json b.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload == "all":
		if *runs < 1 {
			fatal(fmt.Errorf("-runs must be at least 1"))
		}
		if err := runAll(*seed, *seconds, *runs, *jsonOut); err != nil {
			fatal(err)
		}
	case findWorkload(*workload):
		if *seconds < 1 {
			fatal(fmt.Errorf("-seconds must be at least 1"))
		}
		if *traceOut == "" && *trace != 0 {
			*traceOut = filepath.Join(buildDir, "trace_"+*workload+".json")
		}
		h := newHeader()
		r, err := runWorkload(*workload, *seed, *seconds, *trace != 0, *traceOut)
		if err != nil {
			fatal(fmt.Errorf("workload %s: %w", *workload, err))
		}
		report(h, r)
		if *jsonOut != "" {
			if err := writeRunFile(*jsonOut, &runFile{Header: h, Results: []*result{r}}); err != nil {
				fatal(err)
			}
		}
		fmt.Println(contractLine(r))
	default:
		fatal(fmt.Errorf("unknown -workload %q: want %s, or all", *workload, workloadNames()))
	}
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
