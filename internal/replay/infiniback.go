package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"infinicache"
	"infinicache/internal/costmodel"
)

// InfiniCacheBackend replays against a running infinicache.Cache
// deployment through the public client API. The Cache stays owned by
// the caller (so a harness can share one deployment between replay and
// direct inspection); Close releases only the backend's client.
type InfiniCacheBackend struct {
	cache  *infinicache.Cache
	client *infinicache.Client

	// verify makes every GET compare the returned bytes against the
	// deterministic payload pattern the backend wrote — the chaos
	// harness's "zero corrupt bytes returned" oracle. corrupt counts
	// mismatches (which are also surfaced as errors).
	verify  bool
	corrupt atomic.Int64
}

// NewInfiniCache wraps an existing deployment. The backend opens its
// own client (clients are concurrency-safe, so one serves all replay
// sessions) configured by opts.
func NewInfiniCache(cache *infinicache.Cache, opts ...infinicache.ClientOption) (*InfiniCacheBackend, error) {
	cl, err := cache.NewClient(opts...)
	if err != nil {
		return nil, err
	}
	return &InfiniCacheBackend{cache: cache, client: cl}, nil
}

// VerifyReads turns byte-exact GET verification on: every hit is
// compared against the pattern Put wrote, and a mismatch is reported as
// an error and counted in CorruptReads.
func (b *InfiniCacheBackend) VerifyReads(on bool) { b.verify = on }

// CorruptReads returns how many verified GETs returned wrong bytes.
func (b *InfiniCacheBackend) CorruptReads() int64 { return b.corrupt.Load() }

// fetched is what checkBytes needs of an *infinicache.Object (tests
// hand it objects assembled from shards they have damaged).
type fetched interface {
	Size() int
	WriteTo(io.Writer) (int64, error)
}

// patternCheck is the writer a verified hit is streamed into: it
// compares each segment against the deterministic pattern at the
// segment's offset and fails the write at the first difference, so the
// check costs no copy of the object and no second buffer.
type patternCheck struct{ off int64 }

var errPatternMismatch = errors.New("bytes differ from the written pattern")

func (w *patternCheck) Write(p []byte) (int, error) {
	end := w.off + int64(len(p))
	if !bytes.Equal(p, payload(end)[w.off:]) {
		return 0, errPatternMismatch
	}
	w.off = end
	return len(p), nil
}

// checkBytes compares a hit to the deterministic pattern byte for byte,
// and the bytes delivered to the size the object claims.
func (b *InfiniCacheBackend) checkBytes(key string, obj fetched) error {
	n, err := obj.WriteTo(&patternCheck{})
	if err == nil && n != int64(obj.Size()) {
		err = fmt.Errorf("%d bytes delivered", n)
	}
	if err != nil {
		b.corrupt.Add(1)
		return fmt.Errorf("backend: corrupt read: key %s returned %d bytes not matching the written pattern: %v", key, obj.Size(), err)
	}
	return nil
}

func (b *InfiniCacheBackend) Get(ctx context.Context, key string) (bool, error) {
	obj, err := b.client.GetObject(ctx, key)
	switch {
	case err == nil:
		if b.verify {
			if verr := b.checkBytes(key, obj); verr != nil {
				obj.Release()
				return false, verr
			}
		}
		obj.Release()
		return true, nil
	case errors.Is(err, infinicache.ErrMiss):
		return false, nil
	// A proxy rejection after the client's internal retries (typically
	// a GET racing an in-flight write of the same key, or a backup
	// connection swap) has the same client-visible meaning as a lost
	// object: the cache cannot produce it, refetch from the backing
	// store. The engine's single-flight map keeps the RESET-triggered
	// re-insert from duplicating a racing backfill.
	case errors.Is(err, infinicache.ErrLost), errors.Is(err, infinicache.ErrRejected):
		return false, fmt.Errorf("%w: %v", ErrLost, err)
	default:
		return false, err
	}
}

// streamPutThreshold is the object size above which Put ships bytes
// through the streaming PutReader path instead of materialising the
// whole payload: production traces carry multi-hundred-MB blobs, and
// the replay harness should not need an object's worth of resident
// memory per in-flight PUT any more than the client does. Below the
// threshold the materialised PutCtx path stays — it reuses the shared
// pattern buffer and exercises the non-streamed protocol.
const streamPutThreshold = 8 << 20

func (b *InfiniCacheBackend) Put(ctx context.Context, key string, size int64) error {
	if size > streamPutThreshold {
		return b.client.PutReader(ctx, key, size, payloadReader(size))
	}
	return b.client.PutCtx(ctx, key, payload(size))
}

// MGet serves a batch of keys as one pipelined burst per owning proxy.
func (b *InfiniCacheBackend) MGet(ctx context.Context, keys []string) []GetStatus {
	out := make([]GetStatus, len(keys))
	for i, r := range b.client.MGet(ctx, keys...) {
		switch {
		case r.Err == nil:
			if b.verify {
				if verr := b.checkBytes(keys[i], r.Object); verr != nil {
					r.Object.Release()
					out[i] = GetStatus{Err: verr}
					continue
				}
			}
			r.Object.Release()
			out[i] = GetStatus{Hit: true}
		case errors.Is(r.Err, infinicache.ErrMiss):
			out[i] = GetStatus{}
		case errors.Is(r.Err, infinicache.ErrLost), errors.Is(r.Err, infinicache.ErrRejected):
			out[i] = GetStatus{Err: fmt.Errorf("%w: %v", ErrLost, r.Err)}
		default:
			out[i] = GetStatus{Err: r.Err}
		}
	}
	return out
}

// MPut stores a batch in one pipelined burst per owning proxy. Records
// over streamPutThreshold leave the burst and stream individually, so a
// preload over a trace with multi-hundred-MB blobs never materialises
// them.
func (b *InfiniCacheBackend) MPut(ctx context.Context, keys []string, sizes []int64) []error {
	out := make([]error, len(keys))
	pairs := make([]infinicache.KV, 0, len(keys))
	idx := make([]int, 0, len(keys))
	for i, k := range keys {
		var size int64
		if i < len(sizes) {
			size = sizes[i]
		}
		if size > streamPutThreshold {
			out[i] = b.Put(ctx, k, size)
			continue
		}
		pairs = append(pairs, infinicache.KV{Key: k, Value: payload(size)})
		idx = append(idx, i)
	}
	if len(pairs) == 0 {
		return out
	}
	for j, r := range b.client.MPut(ctx, pairs...) {
		out[idx[j]] = r.Err
	}
	return out
}

// Cost prices the deployment's accrued Lambda usage — invocations plus
// billed GB-seconds off the platform ledger, at the paper's public
// AWS prices.
func (b *InfiniCacheBackend) Cost() (float64, bool) {
	return costmodel.LambdaCost(b.cache.Deployment().Platform.Ledger().Total()), true
}

// ReportLines surfaces the proxy-side placement counters, and the
// hot-tier ones when the deployment runs with WithHotTier.
func (b *InfiniCacheBackend) ReportLines() []string {
	var sets, replaced, hits, misses, evictions int64
	for _, p := range b.cache.Deployment().Proxies {
		st := p.Stats()
		sets += st.Puts.Load()
		replaced += st.Replaced.Load()
		hits += st.HotHits.Load()
		misses += st.HotMisses.Load()
		evictions += st.HotEvictions.Load()
	}
	lines := []string{fmt.Sprintf("proxy: %d chunk SETs, %d placed off their hint onto a running node", sets, replaced)}
	if hits == 0 && evictions == 0 {
		return lines
	}
	return append(lines, fmt.Sprintf(
		"hot tier: %d hits / %d proxy GETs served from proxy memory (%d evictions)",
		hits, hits+misses, evictions))
}

// Client exposes the backend's client so harnesses can read its
// counters (EC recoveries, checksum failures) into post-run reports.
func (b *InfiniCacheBackend) Client() *infinicache.Client { return b.client }

// Close releases the backend's client; the deployment itself stays up.
func (b *InfiniCacheBackend) Close() error {
	return b.client.Close()
}
