package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// IBM Docker-registry trace format: one JSON object per line, the shape
// of the anonymised registry traces published alongside "Improving
// Docker Registry Design based on Production Workload Analysis" (FAST
// '18) — the dataset family the paper's §5.2 replay draws from. The
// fields we consume:
//
//	{"http.request.method": "GET",
//	 "http.request.uri": "/v2/<repo>/blobs/<digest>",
//	 "http.response.written": 1518,
//	 "http.response.status": 200,
//	 "timestamp": "2017-06-20T18:32:02.074Z"}
//
// Only blob traffic becomes trace records (manifest and tag requests
// carry no payload worth caching): GET maps to OpGet, PUT/PATCH/POST to
// OpPut, HEAD and other methods are skipped. Failed requests (status
// outside 2xx, when present) are skipped too. The key is the digest
// path segment after "blobs/".
type ibmDockerLine struct {
	Method    string  `json:"http.request.method"`
	URI       string  `json:"http.request.uri"`
	Written   float64 `json:"http.response.written"`
	Status    int     `json:"http.response.status"`
	Timestamp string  `json:"timestamp"`
}

// ReadIBMDocker parses a JSON-lines Docker-registry trace. Records come
// back in file order with absolute times; ReadTrace sorts and rebases.
func ReadIBMDocker(r io.Reader) (*Trace, error) {
	t := &Trace{Objects: make(map[string]int64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var l ibmDockerLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			return nil, fmt.Errorf("workload: line %d: bad JSON: %w", line, err)
		}
		var op Op
		switch strings.ToUpper(l.Method) {
		case "GET":
			op = OpGet
		case "PUT", "PATCH", "POST":
			op = OpPut
		default:
			continue // HEAD and friends carry no blob payload
		}
		key, ok := blobDigest(l.URI)
		if !ok {
			continue // manifest/tag/catalog request
		}
		if l.Status != 0 && (l.Status < 200 || l.Status > 299) {
			continue
		}
		if l.Timestamp == "" {
			return nil, fmt.Errorf("workload: line %d: missing timestamp", line)
		}
		at, err := unixOffset(time.Parse(time.RFC3339Nano, l.Timestamp))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad timestamp %q: %w", line, l.Timestamp, err)
		}
		if l.Written < 0 || l.Written >= math.MaxInt64 {
			return nil, fmt.Errorf("workload: line %d: size %v out of range", line, l.Written)
		}
		size := int64(l.Written)
		if size == 0 {
			// Registries log written=0 for cache-validated responses;
			// fall back to the catalogue when the blob was seen before.
			size = t.Objects[key]
		}
		t.Records = append(t.Records, Record{
			Time: at, Op: op, Key: key, Size: size,
		})
		if size > 0 || t.Objects[key] == 0 {
			t.Objects[key] = size
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: line %d: %w", line, err)
	}
	return t, nil
}

// blobDigest extracts the digest from a registry blob URI
// ("/v2/<name>/blobs/<digest>[?query]").
func blobDigest(uri string) (string, bool) {
	i := strings.Index(uri, "/blobs/")
	if i < 0 {
		return "", false
	}
	key := uri[i+len("/blobs/"):]
	if j := strings.IndexByte(key, '?'); j >= 0 {
		key = key[:j]
	}
	key = strings.TrimSuffix(key, "/")
	if key == "" || strings.ContainsRune(key, '/') {
		return "", false
	}
	return key, true
}

// ibmDockerEpoch anchors synthetic offsets to a plausible absolute
// timestamp (the published traces are from mid-2017).
var ibmDockerEpoch = time.Date(2017, time.June, 20, 0, 0, 0, 0, time.UTC)

// WriteIBMDocker serialises a trace as JSON lines in the registry
// format, inverse of ReadIBMDocker.
func (t *Trace) WriteIBMDocker(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Records {
		method := "GET"
		if r.Op == OpPut {
			method = "PUT"
		}
		l := ibmDockerLine{
			Method:    method,
			URI:       "/v2/replay/blobs/" + r.Key,
			Written:   float64(r.Size),
			Status:    200,
			Timestamp: ibmDockerEpoch.Add(r.Time).Format(time.RFC3339Nano),
		}
		if err := enc.Encode(&l); err != nil {
			return err
		}
	}
	return bw.Flush()
}
