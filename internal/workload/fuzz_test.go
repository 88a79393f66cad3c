package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenFiles pairs each format with its committed fixture.
var goldenFiles = []struct {
	format Format
	file   string
}{
	{FormatCSV, "golden.csv"},
	{FormatIBMDocker, "golden_ibmdocker.log"},
	{FormatAzure, "golden_azure.csv"},
}

// FuzzReadTrace feeds arbitrary bytes to each of the three trace
// readers, seeded with the head of each golden file (short seeds keep
// the engine's minimisation of new inputs quick). A reader may refuse its input
// but must not panic, and a trace it accepts meets the contract every
// consumer relies on: records sorted by time with the first at zero,
// sizes non-negative, and every key in the catalogue.
func FuzzReadTrace(f *testing.F) {
	for i, g := range goldenFiles {
		b, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(b, []byte("\n"))
		f.Add(uint8(i), bytes.Join(lines[:min(len(lines), 6)], nil))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		format := goldenFiles[int(which)%len(goldenFiles)].format
		tr, err := ReadTrace(format, bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range tr.Records {
			if i == 0 && r.Time != 0 {
				t.Fatalf("%s: first record at %v, want 0", format, r.Time)
			}
			if i > 0 && r.Time < tr.Records[i-1].Time {
				t.Fatalf("%s: record %d at %v precedes record %d at %v", format, i, r.Time, i-1, tr.Records[i-1].Time)
			}
			if r.Size < 0 {
				t.Fatalf("%s: record %d has size %d", format, i, r.Size)
			}
			if _, ok := tr.Objects[r.Key]; !ok {
				t.Fatalf("%s: record %d's key %q is not in the catalogue", format, i, r.Key)
			}
		}
	})
}
