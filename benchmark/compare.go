package main

import (
	"fmt"
	"io"
)

const (
	// setupFloorSeconds: setup_s only counts as worse when it also grew by
	// this much in absolute terms — a 30 ms set-up doubling is noise.
	setupFloorSeconds = 0.5
	// minRuns is how many runs of a workload a side needs before its
	// run-to-run spread, and with it any verdict, means something.
	minRuns = 3
)

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved" // the runs of a side spread wider than the guard, or are too few
)

// side is one file's runs of one (metric, workload) pairing.
type side struct {
	Median float64
	Spread float64 // interquartile range of the runs as a share of their median
	Runs   int
}

func newSide(values []float64) side {
	s := side{Median: medianOf(values), Runs: len(values)}
	if len(values) >= 2 && s.Median != 0 {
		q1, _, q3 := quartiles(values)
		s.Spread = (q3 - q1) / s.Median
	}
	return s
}

// judge applies one metric's guard to the runs of a baseline a and a
// candidate b: b's median may be worse than a's by the guard. When
// either side's own runs spread wider than the guard, a change of the
// guard's size cannot be told from noise and the pairing is unresolved.
func judge(d metricDef, a, b side) (verdict, float64) {
	if a.Median == 0 {
		return verdictOK, 0
	}
	change := (b.Median - a.Median) / a.Median // positive = worse
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case a.Runs < minRuns || b.Runs < minRuns || a.Spread > d.Guard || b.Spread > d.Guard:
		return verdictUnresolved, change
	case change > d.Guard && (d.Name != "setup_s" || b.Median-a.Median >= setupFloorSeconds):
		return verdictWorse, change
	}
	return verdictOK, change
}

func (d metricDef) appliesTo(workload string) bool {
	if len(d.On) == 0 {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// comparedDefs are the metrics -compare judges: every end-to-end
// metric, and the per-layer ones that carry a guard.
func comparedDefs() []metricDef {
	defs := append([]metricDef(nil), endToEndDefs...)
	for _, d := range perLayerDefs {
		if d.Guard > 0 {
			defs = append(defs, d)
		}
	}
	return defs
}

// untracedRuns collects the value of metric d in every untraced run of
// a workload in f.
func untracedRuns(f *runFile, workload string, d metricDef) (values []float64, seconds float64) {
	for _, r := range f.Results {
		if r.Workload == workload && !r.Trace {
			values = append(values, r.Metrics[d.Name].Value)
			seconds = r.Seconds
		}
	}
	return values, seconds
}

// compareFiles prints one line per (metric, workload) pairing present
// in both files and reports whether any is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readRunFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return false, err
	}
	ha, hb := a.Header, b.Header
	if ha.NProc != hb.NProc || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.GoVersion != hb.GoVersion || ha.Kernel != hb.Kernel {
		return false, fmt.Errorf("results are from different set-ups and do not compare: %s nproc=%d gomaxprocs=%d gf256=%s vs %s nproc=%d gomaxprocs=%d gf256=%s",
			ha.GoVersion, ha.NProc, ha.GOMAXPROCS, ha.Kernel, hb.GoVersion, hb.NProc, hb.GOMAXPROCS, hb.Kernel)
	}
	fmt.Fprintf(w, "# a: %s commit %s   b: %s commit %s\n", pathA, ha.Commit, pathB, hb.Commit)
	fmt.Fprintln(w, "# verdict   workload    metric                       median a (runs, spread) -> median b (runs, spread)      change")
	compared := 0
	for _, wl := range workloadDefs {
		for _, d := range comparedDefs() {
			if !d.appliesTo(wl.Name) {
				continue
			}
			va, secondsA := untracedRuns(a, wl.Name, d)
			vb, secondsB := untracedRuns(b, wl.Name, d)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if secondsA != secondsB {
				return false, fmt.Errorf("%s: run lengths differ (%gs vs %gs)", wl.Name, secondsA, secondsB)
			}
			sa, sb := newSide(va), newSide(vb)
			v, change := judge(d, sa, sb)
			if v == verdictWorse {
				worse = true
			}
			compared++
			fmt.Fprintf(w, "%-10s %-11s %-28s %12.4f (%d, %4.1f%%) -> %12.4f (%d, %4.1f%%) %-6s %+6.1f%% (guard %.1f%%)\n",
				v, wl.Name, d.Name, sa.Median, sa.Runs, 100*sa.Spread, sb.Median, sb.Runs, 100*sb.Spread, d.Unit, 100*change, 100*d.Guard)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("the two files share no untraced run of a workload")
	}
	return worse, nil
}
