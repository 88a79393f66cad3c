package workload

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Format names a trace serialisation. Three are supported:
//
//   - FormatCSV: the repo's native timestamp_ns,op,key,size_bytes layout
//     (csv.go);
//   - FormatIBMDocker: JSON-lines in the shape of the published IBM
//     Docker-registry traces the paper replays in §5.2 (ibmdocker.go);
//   - FormatAzure: the Azure Functions blob-access CSV layout used by
//     the Faa$T line of work (azure.go).
//
// Readers normalise to the in-memory Trace contract: records sorted by
// time, times as offsets from the first event, and a complete object
// catalogue.
type Format string

// Supported formats.
const (
	FormatCSV       Format = "csv"
	FormatIBMDocker Format = "ibmdocker"
	FormatAzure     Format = "azure"
)

// Formats lists the supported format names for flag help text.
func Formats() []string {
	return []string{string(FormatCSV), string(FormatIBMDocker), string(FormatAzure)}
}

// ParseFormat validates a format name from a flag.
func ParseFormat(s string) (Format, error) {
	switch Format(strings.ToLower(s)) {
	case FormatCSV:
		return FormatCSV, nil
	case FormatIBMDocker:
		return FormatIBMDocker, nil
	case FormatAzure:
		return FormatAzure, nil
	}
	return "", fmt.Errorf("workload: unknown trace format %q (have %s)",
		s, strings.Join(Formats(), ", "))
}

// ReadTrace parses a trace in the named format and normalises record
// order (real traces are frequently written by concurrent frontends and
// arrive with mildly out-of-order timestamps).
func ReadTrace(f Format, r io.Reader) (*Trace, error) {
	var (
		t   *Trace
		err error
	)
	switch f {
	case FormatCSV:
		t, err = ReadCSV(r)
	case FormatIBMDocker:
		t, err = ReadIBMDocker(r)
	case FormatAzure:
		t, err = ReadAzure(r)
	default:
		return nil, fmt.Errorf("workload: unknown trace format %q", f)
	}
	if err == nil {
		err = normalize(t)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// WriteTrace serialises a trace in the named format.
func WriteTrace(f Format, w io.Writer, t *Trace) error {
	switch f {
	case FormatCSV:
		return t.WriteCSV(w)
	case FormatIBMDocker:
		return t.WriteIBMDocker(w)
	case FormatAzure:
		return t.WriteAzure(w)
	}
	return fmt.Errorf("workload: unknown trace format %q", f)
}

// normalize sorts records by time (stable, so simultaneous events keep
// file order) and rebases offsets so the first record is at zero. A
// trace whose span does not fit a time.Duration is refused.
func normalize(t *Trace) error {
	if len(t.Records) == 0 {
		return nil
	}
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].Time < t.Records[j].Time
	})
	base := t.Records[0].Time
	if t.Records[len(t.Records)-1].Time-base < 0 {
		return fmt.Errorf("workload: trace spans more than %v", time.Duration(math.MaxInt64))
	}
	for i := range t.Records {
		t.Records[i].Time -= base
	}
	return nil
}

// unixOffset turns a parsed absolute timestamp into the record time a
// reader keeps until normalize rebases it: nanoseconds since the Unix
// epoch, which an int64 holds for the years 1678-2261 only.
func unixOffset(ts time.Time, err error) (time.Duration, error) {
	if err == nil && (ts.Year() < 1678 || ts.Year() > 2261) {
		err = fmt.Errorf("year %d outside 1678-2261", ts.Year())
	}
	return time.Duration(ts.UnixNano()), err
}
