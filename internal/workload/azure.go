package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Azure Functions blob-access trace format: the CSV layout of the
// public "Azure Functions Blob Access Trace" (the dataset Faa$T-style
// systems replay). Columns are identified by header name, so column
// order and extra columns are tolerated. Consumed columns:
//
//	Timestamp    - "2020-01-01 00:12:34.5678901" (or RFC 3339)
//	AnonBlobName - opaque blob identifier, becomes the record key
//	BlobBytes    - object size; the published files carry floats and
//	               scientific notation ("1.049e+06"), parsed as float
//	               and rounded to bytes
//	Read, Write  - "True"/"False" flags; a row can be both (the
//	               invocation read and then rewrote the blob), which
//	               emits a GET followed by a PUT
type azureColumns struct {
	ts, blob, bytes, read, write int
}

// azureTimeLayout is the trace's 100 ns tick format.
const azureTimeLayout = "2006-01-02 15:04:05.9999999"

// ReadAzure parses an Azure Functions blob trace. Records come back in
// file order with absolute times; ReadTrace sorts and rebases.
func ReadAzure(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading header: %w", err)
	}
	cols := azureColumns{ts: -1, blob: -1, bytes: -1, read: -1, write: -1}
	for i, name := range header {
		switch strings.TrimSpace(name) {
		case "Timestamp":
			cols.ts = i
		case "AnonBlobName":
			cols.blob = i
		case "BlobBytes":
			cols.bytes = i
		case "Read":
			cols.read = i
		case "Write":
			cols.write = i
		}
	}
	if cols.ts < 0 || cols.blob < 0 || cols.bytes < 0 || cols.read < 0 || cols.write < 0 {
		return nil, fmt.Errorf("workload: azure header missing required columns "+
			"(Timestamp, AnonBlobName, BlobBytes, Read, Write): %v", header)
	}
	t := &Trace{Objects: make(map[string]int64)}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		need := cols.ts
		for _, c := range []int{cols.blob, cols.bytes, cols.read, cols.write} {
			if c > need {
				need = c
			}
		}
		if len(rec) <= need {
			return nil, fmt.Errorf("workload: line %d: %d fields, need %d", line, len(rec), need+1)
		}
		at, err := unixOffset(parseAzureTime(rec[cols.ts]))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad timestamp %q: %w", line, rec[cols.ts], err)
		}
		key := strings.TrimSpace(rec[cols.blob])
		if key == "" {
			return nil, fmt.Errorf("workload: line %d: empty blob name", line)
		}
		// Sizes arrive as integers, floats, or scientific notation.
		f, err := strconv.ParseFloat(strings.TrimSpace(rec[cols.bytes]), 64)
		if err != nil || math.IsNaN(f) || f < 0 || f >= math.MaxInt64 {
			return nil, fmt.Errorf("workload: line %d: bad size %q", line, rec[cols.bytes])
		}
		size := int64(math.Round(f))
		read, err := parseAzureBool(rec[cols.read])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad Read flag %q", line, rec[cols.read])
		}
		write, err := parseAzureBool(rec[cols.write])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad Write flag %q", line, rec[cols.write])
		}
		if read {
			t.Records = append(t.Records, Record{Time: at, Op: OpGet, Key: key, Size: size})
		}
		if write {
			t.Records = append(t.Records, Record{Time: at, Op: OpPut, Key: key, Size: size})
		}
		if read || write {
			t.Objects[key] = size
		}
	}
	return t, nil
}

func parseAzureTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	if ts, err := time.Parse(azureTimeLayout, s); err == nil {
		return ts, nil
	}
	return time.Parse(time.RFC3339Nano, s)
}

func parseAzureBool(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "1", "yes":
		return true, nil
	case "false", "0", "no", "":
		return false, nil
	}
	return false, fmt.Errorf("not a boolean")
}

// azureEpoch anchors synthetic offsets (the published trace covers late
// 2020).
var azureEpoch = time.Date(2020, time.November, 1, 0, 0, 0, 0, time.UTC)

// WriteAzure serialises a trace in the Azure blob-trace CSV layout,
// inverse of ReadAzure.
func (t *Trace) WriteAzure(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"Timestamp", "AnonRegion", "AnonUserId", "AnonAppName",
		"AnonFunctionInvocationId", "AnonBlobName", "BlobType", "AnonBlobETag",
		"BlobBytes", "Read", "Write"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, r := range t.Records {
		read, write := "False", "False"
		if r.Op == OpPut {
			write = "True"
		} else {
			read = "True"
		}
		row := []string{
			azureEpoch.Add(r.Time).Format(azureTimeLayout),
			"region-0", "user-0", "app-0",
			fmt.Sprintf("inv-%08d", i),
			r.Key, "BlockBlob", fmt.Sprintf("etag-%08d", i),
			strconv.FormatInt(r.Size, 10),
			read, write,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
