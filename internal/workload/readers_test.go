package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fixtureTrace is a small fixed trace with 100 ns-aligned offsets (the
// Azure layout carries 100 ns ticks, so finer offsets cannot survive a
// round trip).
func fixtureTrace() *Trace {
	recs := []Record{
		{Time: 0, Op: OpPut, Key: "sha256:aaa111", Size: 64 << 10},
		{Time: 1500 * time.Millisecond, Op: OpGet, Key: "sha256:aaa111", Size: 64 << 10},
		{Time: 2 * time.Second, Op: OpGet, Key: "sha256:bbb222", Size: 1 << 20},
		{Time: 3700 * time.Millisecond, Op: OpGet, Key: "sha256:aaa111", Size: 64 << 10},
		{Time: 5 * time.Second, Op: OpPut, Key: "sha256:ccc333", Size: 123},
		{Time: 6 * time.Second, Op: OpGet, Key: "sha256:ccc333", Size: 123},
	}
	t := &Trace{Objects: make(map[string]int64)}
	for _, r := range recs {
		t.Records = append(t.Records, r)
		t.Objects[r.Key] = r.Size
	}
	return t
}

func TestRoundTripAllFormats(t *testing.T) {
	want := fixtureTrace()
	for _, f := range Formats() {
		format, err := ParseFormat(f)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(format, &buf, want); err != nil {
			t.Fatalf("%s: write: %v", f, err)
		}
		got, err := ReadTrace(format, &buf)
		if err != nil {
			t.Fatalf("%s: read: %v", f, err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("%s: records did not round-trip:\n got %v\nwant %v", f, got.Records, want.Records)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%s: catalogue did not round-trip: got %v want %v", f, got.Objects, want.Objects)
		}
	}
}

// Golden files are generated with ic-tracegen -format (see
// testdata/README); the test pins that both readers keep parsing the
// committed bytes identically to the equivalent CSV trace.
func TestGoldenFilesAgreeAcrossFormats(t *testing.T) {
	ref := readGolden(t, FormatCSV, "golden.csv")
	for _, tc := range []struct {
		format Format
		file   string
	}{
		{FormatIBMDocker, "golden_ibmdocker.log"},
		{FormatAzure, "golden_azure.csv"},
	} {
		got := readGolden(t, tc.format, tc.file)
		if !reflect.DeepEqual(got.Records, ref.Records) {
			t.Fatalf("%s: golden trace diverges from CSV reference", tc.file)
		}
		if !reflect.DeepEqual(got.Objects, ref.Objects) {
			t.Fatalf("%s: golden catalogue diverges from CSV reference", tc.file)
		}
	}
	if len(ref.Records) == 0 {
		t.Fatal("golden trace is empty")
	}
}

func readGolden(t *testing.T, f Format, name string) *Trace {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(f, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tr
}

func TestIBMDockerReaderDetails(t *testing.T) {
	in := strings.Join([]string{
		// Out of order: the second line precedes the first in time.
		`{"http.request.method":"GET","http.request.uri":"/v2/lib/app/blobs/sha256:f00d","http.response.written":2048,"http.response.status":200,"timestamp":"2017-06-20T10:00:05Z"}`,
		`{"http.request.method":"PUT","http.request.uri":"/v2/lib/app/blobs/sha256:f00d","http.response.written":2048,"http.response.status":201,"timestamp":"2017-06-20T10:00:01Z"}`,
		// Manifest and HEAD lines are skipped, as are failed requests.
		`{"http.request.method":"GET","http.request.uri":"/v2/lib/app/manifests/latest","http.response.written":999,"http.response.status":200,"timestamp":"2017-06-20T10:00:06Z"}`,
		`{"http.request.method":"HEAD","http.request.uri":"/v2/lib/app/blobs/sha256:f00d","http.response.written":0,"http.response.status":200,"timestamp":"2017-06-20T10:00:07Z"}`,
		`{"http.request.method":"GET","http.request.uri":"/v2/lib/app/blobs/sha256:dead","http.response.written":512,"http.response.status":404,"timestamp":"2017-06-20T10:00:08Z"}`,
		// written=0 falls back to the catalogue size.
		`{"http.request.method":"GET","http.request.uri":"/v2/lib/app/blobs/sha256:f00d?ns=x","http.response.written":0,"http.response.status":200,"timestamp":"2017-06-20T10:00:09Z"}`,
	}, "\n")
	tr, err := ReadTrace(FormatIBMDocker, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Time: 0, Op: OpPut, Key: "sha256:f00d", Size: 2048},
		{Time: 4 * time.Second, Op: OpGet, Key: "sha256:f00d", Size: 2048},
		{Time: 8 * time.Second, Op: OpGet, Key: "sha256:f00d", Size: 2048},
	}
	if !reflect.DeepEqual(tr.Records, want) {
		t.Fatalf("records:\n got %v\nwant %v", tr.Records, want)
	}
}

func TestIBMDockerReaderMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"bad json":      `{"http.request.method":"GET",`,
		"bad timestamp": `{"http.request.method":"GET","http.request.uri":"/v2/a/blobs/x","http.response.written":1,"timestamp":"yesterday"}`,
		"no timestamp":  `{"http.request.method":"GET","http.request.uri":"/v2/a/blobs/x","http.response.written":1}`,
		"negative size": `{"http.request.method":"GET","http.request.uri":"/v2/a/blobs/x","http.response.written":-5,"timestamp":"2017-06-20T10:00:00Z"}`,
		"huge size":     `{"http.request.method":"GET","http.request.uri":"/v2/a/blobs/x","http.response.written":1e300,"timestamp":"2017-06-20T10:00:00Z"}`,
		"year 1000":     `{"http.request.method":"GET","http.request.uri":"/v2/a/blobs/x","http.response.written":1,"timestamp":"1000-06-20T10:00:00Z"}`,
	} {
		if _, err := ReadTrace(FormatIBMDocker, strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got none", name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q does not name the line", name, err)
		}
	}
}

func TestAzureReaderDetails(t *testing.T) {
	in := strings.Join([]string{
		// Extra columns and shuffled order are fine: lookup is by name.
		"AnonRegion,Timestamp,AnonBlobName,BlobBytes,Read,Write,Extra",
		// Scientific notation size (as in the published files).
		"eu,2020-11-01 00:00:02.5000000,blob-a,1.049e+06,True,False,x",
		// Read+write row emits GET then PUT; plain integer size.
		"eu,2020-11-01 00:00:01.0000000,blob-b,4096,True,True,x",
		// Neither read nor write: skipped.
		"eu,2020-11-01 00:00:03.0000000,blob-c,10,False,False,x",
	}, "\n")
	tr, err := ReadTrace(FormatAzure, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Time: 0, Op: OpGet, Key: "blob-b", Size: 4096},
		{Time: 0, Op: OpPut, Key: "blob-b", Size: 4096},
		{Time: 1500 * time.Millisecond, Op: OpGet, Key: "blob-a", Size: 1049000},
	}
	if !reflect.DeepEqual(tr.Records, want) {
		t.Fatalf("records:\n got %v\nwant %v", tr.Records, want)
	}
	if _, ok := tr.Objects["blob-c"]; ok {
		t.Fatal("no-op row entered the catalogue")
	}
}

// TestCSVSpanOverflow: a trace whose span does not fit a time.Duration
// cannot be rebased to start at zero and stay sorted, so it is refused.
func TestCSVSpanOverflow(t *testing.T) {
	in := "timestamp_ns,op,key,size_bytes\n-9000000000000000000,GET,a,1\n9000000000000000000,GET,a,1\n"
	if _, err := ReadTrace(FormatCSV, strings.NewReader(in)); err == nil {
		t.Fatal("a trace spanning 570 years was accepted")
	}
}

func TestAzureReaderMalformed(t *testing.T) {
	head := "Timestamp,AnonBlobName,BlobBytes,Read,Write\n"
	for name, in := range map[string]string{
		"missing columns": "Timestamp,AnonBlobName\n2020-11-01 00:00:00,blob-a",
		"bad timestamp":   head + "noon,blob-a,1,True,False",
		"bad size":        head + "2020-11-01 00:00:00,blob-a,many,True,False",
		"negative size":   head + "2020-11-01 00:00:00,blob-a,-1,True,False",
		"huge size":       head + "2020-11-01 00:00:00,blob-a,1e300,True,False",
		"year 1000":       head + "1000-11-01 00:00:00,blob-a,1,True,False",
		"bad flag":        head + "2020-11-01 00:00:00,blob-a,1,maybe,False",
		"empty blob":      head + "2020-11-01 00:00:00,,1,True,False",
	} {
		if _, err := ReadTrace(FormatAzure, strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}
