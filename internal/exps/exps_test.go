package exps

import (
	"strings"
	"testing"
)

// testParams keeps every experiment in the seconds range: a 6-hour
// trace (cmd/ic-repro replays 50) and one-cell live grids.
var testParams = Params{
	Seed:         1,
	Hours:        6,
	Samples:      2,
	MemoriesMB:   []int{1024},
	Codes:        [][2]int{{4, 2}},
	SizesMB:      []int{10},
	Clients:      []int{1, 2},
	PointSeconds: 1,
	BatchKeys:    4,
	HotKeys:      4,
}

// report runs the Table row called name at test size and checks the
// row's own markers. The test functions below only name rows — they
// keep one stable test name per experiment — so what a report must
// contain is stated once, in the table.
func report(t *testing.T, name string) {
	t.Helper()
	for _, e := range Table {
		if e.Name != name {
			continue
		}
		if e.Live && testing.Short() {
			t.Skip("live microbenchmark")
		}
		out := e.Run(testParams)
		for _, want := range e.Markers {
			if !strings.Contains(out, want) {
				t.Errorf("%s report missing %q:\n%s", e.File, want, out)
			}
		}
		return
	}
	t.Fatalf("no experiment %q in Table", name)
}

func TestFigure1Report(t *testing.T)        { report(t, "1") }
func TestFigure4LiveReport(t *testing.T)    { report(t, "4") }
func TestFigure8Report(t *testing.T)        { report(t, "8") }
func TestFigure9Report(t *testing.T)        { report(t, "9") }
func TestFigure11LiveReport(t *testing.T)   { report(t, "11") }
func TestFigure11fLiveReport(t *testing.T)  { report(t, "11f") }
func TestFigure12LiveReport(t *testing.T)   { report(t, "12") }
func TestFigure13Report(t *testing.T)       { report(t, "13") }
func TestFigure14Report(t *testing.T)       { report(t, "14") }
func TestFigure15Report(t *testing.T)       { report(t, "15") }
func TestFigure16Report(t *testing.T)       { report(t, "16") }
func TestFigure17Report(t *testing.T)       { report(t, "17") }
func TestTable1Report(t *testing.T)         { report(t, "table1") }
func TestAvailabilityReport(t *testing.T)   { report(t, "availability") }
func TestBatchProbeLiveReport(t *testing.T) { report(t, "batch") }
func TestHotProbeLiveReport(t *testing.T)   { report(t, "hot") }

// TestTableWellFormed: -fig selectors and report files are unique, and
// every row can run and says what to look for.
func TestTableWellFormed(t *testing.T) {
	names, files := map[string]bool{}, map[string]bool{}
	for _, e := range Table {
		if e.Name == "" || e.File == "" || e.Run == nil || len(e.Markers) == 0 {
			t.Errorf("incomplete row %+v", e)
		}
		if names[e.Name] || files[e.File] {
			t.Errorf("duplicate name or file in row %s / %s", e.Name, e.File)
		}
		names[e.Name], files[e.File] = true, true
	}
}
