package replay

import (
	"context"
	"io"
	"testing"

	"infinicache"
)

// shardObject stands in for a fetched object: it streams its shards in
// order, as client.Object.WriteTo does, and claims size bytes.
type shardObject struct {
	shards [][]byte
	size   int
}

func (o shardObject) Size() int { return o.size }

func (o shardObject) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for _, s := range o.shards {
		n, err := w.Write(s)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// split copies the first n pattern bytes into d shards (the last one
// short when d does not divide n).
func split(n, d int) [][]byte {
	src := payload(int64(n))
	per := (n + d - 1) / d
	shards := make([][]byte, 0, d)
	for lo := 0; lo < n; lo += per {
		shards = append(shards, append([]byte(nil), src[lo:min(lo+per, n)]...))
	}
	return shards
}

// TestVerifiedReadReportsDamage: the streamed comparison reports exactly
// what the copying one did — a flipped byte anywhere, in any shard — and
// an object that delivers fewer or more bytes than it claims; each
// report counts once in CorruptReads, and an intact object none.
func TestVerifiedReadReportsDamage(t *testing.T) {
	const size, d = 100_003, 4 // not a multiple of d: the tail shard is short
	b := &InfiniCacheBackend{}
	if err := b.checkBytes("intact", shardObject{split(size, d), size}); err != nil {
		t.Fatalf("intact object reported: %v", err)
	}
	want := int64(0)
	report := func(name string, obj shardObject) {
		t.Helper()
		want++
		if err := b.checkBytes(name, obj); err == nil {
			t.Errorf("%s: not reported", name)
		}
		if got := b.CorruptReads(); got != want {
			t.Errorf("%s: CorruptReads = %d, want %d", name, got, want)
		}
	}
	for shard := 0; shard < d; shard++ {
		for _, at := range []string{"first", "middle", "last"} {
			shards := split(size, d)
			i := map[string]int{"first": 0, "middle": len(shards[shard]) / 2, "last": len(shards[shard]) - 1}[at]
			shards[shard][i] ^= 0x10
			report("flipped "+at+" byte of a shard", shardObject{shards, size})
		}
	}
	report("short object", shardObject{split(size-100, d), size})
	report("long object", shardObject{split(size+100, d), size})
}

// TestVerifiedReadEndToEnd: a real hit, reconstructed or not, streams
// through the same check clean.
func TestVerifiedReadEndToEnd(t *testing.T) {
	cache, err := infinicache.New(
		infinicache.WithNodesPerProxy(6),
		infinicache.WithNodeMemoryMB(256),
		infinicache.WithShards(4, 2),
		infinicache.WithTimeScale(0.02),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	b, err := NewInfiniCache(cache)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.VerifyReads(true)
	ctx := context.Background()
	for _, size := range []int64{1, 4096, 1<<20 + 3} {
		if err := b.Put(ctx, "k", size); err != nil {
			t.Fatal(err)
		}
		if hit, err := b.Get(ctx, "k"); err != nil || !hit {
			t.Fatalf("verified GET of %d bytes: hit=%v err=%v", size, hit, err)
		}
	}
	if n := b.CorruptReads(); n != 0 {
		t.Fatalf("CorruptReads = %d on intact objects", n)
	}
}
