package replay

import (
	"context"
	"errors"
	"io"
	"sync"

	"infinicache/internal/workload"
)

// ErrLost is returned by Backend.Get when the cache had the key but can
// no longer produce it (InfiniCache: reclamation destroyed more than p
// chunks). The engine counts it as a RESET — the §5.2 semantics where
// the client refetches from the backing store and re-inserts — rather
// than a clean miss or a hard error.
var ErrLost = errors.New("replay: cached object lost")

// Backend is one system under replay. Implementations must be safe for
// concurrent use: the engine calls them from Sessions goroutines.
type Backend interface {
	// Get fetches key. (false, nil) is a clean miss; an error wrapping
	// ErrLost is a RESET; any other error is a backend failure.
	Get(ctx context.Context, key string) (hit bool, err error)
	// Put stores a synthetic object of the given size under key.
	Put(ctx context.Context, key string, size int64) error
	Close() error
}

// GetStatus is one key's outcome of a batched get.
type GetStatus struct {
	Hit bool
	Err error
}

// BatchBackend is implemented by backends with a batched fast path
// (InfiniCache MGet/MPut); the engine uses it when Config.Batch >= 2.
type BatchBackend interface {
	Backend
	MGet(ctx context.Context, keys []string) []GetStatus
	MPut(ctx context.Context, keys []string, sizes []int64) []error
}

// Coster is implemented by backends that can price the replayed load
// (InfiniCache: the platform billing ledger through
// costmodel.LambdaCost; Redis: instance-hours).
type Coster interface {
	// Cost returns the dollars accrued so far; ok is false when the
	// backend has no cost model (the dummy).
	Cost() (dollars float64, ok bool)
}

// Reporter lets a backend append backend-specific lines (hot-tier hits,
// server-side evictions) to the replay summary.
type Reporter interface {
	ReportLines() []string
}

// Preload warms the backend with every distinct key in the trace at
// its first-seen size (capped at sizeCap when > 0), so a replay can
// start from a populated cache instead of paying one compulsory miss
// per object. Keys ride MPut bursts of the given batch size when the
// backend implements BatchBackend (batch < 2 forces one Put per key).
// It returns the number of objects stored and the first error.
func Preload(ctx context.Context, b Backend, recs []workload.Record, sizeCap int64, batch int) (int, error) {
	keys := make([]string, 0, len(recs))
	sizes := make([]int64, 0, len(recs))
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		size := r.Size
		if sizeCap > 0 && size > sizeCap {
			size = sizeCap
		}
		keys = append(keys, r.Key)
		sizes = append(sizes, size)
	}

	batcher, _ := b.(BatchBackend)
	stored := 0
	if batcher != nil && batch >= 2 {
		for lo := 0; lo < len(keys); lo += batch {
			hi := lo + batch
			if hi > len(keys) {
				hi = len(keys)
			}
			for _, err := range batcher.MPut(ctx, keys[lo:hi], sizes[lo:hi]) {
				if err != nil {
					return stored, err
				}
				stored++
			}
		}
		return stored, nil
	}
	for i, k := range keys {
		if err := b.Put(ctx, k, sizes[i]); err != nil {
			return stored, err
		}
		stored++
	}
	return stored, nil
}

// Dummy is the no-op calibration backend: a map behind a mutex, no
// wire, no nodes. Replaying against it measures pure harness overhead,
// and its hit pattern (every inserted key hits forever — no capacity
// bound, no failures) is the reference the engine tests pin against.
type Dummy struct {
	mu      sync.Mutex
	objects map[string]int64
}

// NewDummy returns an empty dummy backend.
func NewDummy() *Dummy {
	return &Dummy{objects: make(map[string]int64)}
}

func (d *Dummy) Get(_ context.Context, key string) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.objects[key]
	return ok, nil
}

func (d *Dummy) Put(_ context.Context, key string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.objects[key] = size
	return nil
}

func (d *Dummy) Close() error { return nil }

// Len reports the number of resident objects.
func (d *Dummy) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.objects)
}

// payload returns a deterministic read-only byte slice of the given
// size for synthetic PUTs. The backing buffer grows monotonically and
// is shared by every caller, concurrent ones included; backends must
// treat it as immutable. The InfiniCache client does: it sends whole
// data shards straight out of the slice it is handed and never writes
// through it, capacity included (pinned in internal/client by
// TestPutNeverWritesCallerValue).
func payload(size int64) []byte {
	if size <= 0 {
		return nil
	}
	payloadMu.RLock()
	if int64(len(payloadBuf)) >= size {
		b := payloadBuf[:size]
		payloadMu.RUnlock()
		return b
	}
	payloadMu.RUnlock()

	payloadMu.Lock()
	defer payloadMu.Unlock()
	for int64(len(payloadBuf)) < size {
		n := len(payloadBuf)
		if n == 0 {
			n = 64 << 10
		}
		grown := make([]byte, 2*n)
		for i := range grown {
			grown[i] = byte(i * 131)
		}
		payloadBuf = grown
	}
	return payloadBuf[:size]
}

var (
	payloadMu  sync.RWMutex
	payloadBuf []byte
)

// payloadReader streams the same deterministic pattern payload returns
// — byte i is byte(i*131) — without materialising the object, so a
// backend can ship a multi-hundred-MB synthetic PUT through a streaming
// path (client.PutReader) while GET-side verification against
// payload(size) still matches byte for byte.
func payloadReader(size int64) io.Reader {
	return &patternReader{n: size}
}

type patternReader struct {
	off, n int64
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.off >= r.n {
		return 0, io.EOF
	}
	m := min(int64(len(p)), r.n-r.off)
	for i := int64(0); i < m; i++ {
		p[i] = byte((r.off + i) * 131)
	}
	r.off += m
	return int(m), nil
}
