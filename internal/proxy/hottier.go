package proxy

import (
	"infinicache/internal/protocol"
)

// The hot tier is the proxy-resident hot-object cache: a size-capped,
// CLOCK-managed copy of small, frequently-read objects in front of the
// Lambda pool that short-circuits the d+p chunk round trips. It is no
// structure of its own. A resident object's copy is a field of its
// mapping entry (objMeta.hot), and the policy — which keys are resident,
// the ghost admission filter, the size threshold, CLOCK eviction — is
// clockcache.Tier, the same object the simulator runs bare, held by the
// mapping table and run under its lock with the Stats.Hot* counters.
// Because the consistent-hash ring gives every key exactly one owning
// proxy, every SET and DEL for a key passes this table, so the tier is
// coherent by construction: dropping an entry (overwrite, DEL, pool
// eviction, loss) drops its copy, and an admission lands only while the
// key still maps the incarnation its capture came from (AdmitHot).
//
// What it stores: the object's chunk payloads, sparse by chunk index
// (exactly d of the total entries non-nil — the first d chunks a
// hotCapture saw: the data shards on the write-through path, whose SET
// frames arrive in index order, whichever d chunks streamed first on
// the read-through path), so a hit replays the same first-d DATA frames
// a node fan-in would have produced and the client-side decode path is
// untouched.
//
// Buffer ownership: tier chunk copies are plain GC-owned allocations,
// never drawn from bufpool. A drop or an eviction may race a hit whose
// DATA frames are still being forwarded outside the table lock;
// dropping the reference and letting the garbage collector reclaim the
// bytes once the last Forward returns is what makes that race safe with
// no reference counting.

// hotEntry is one resident object's copy. Immutable once admitted:
// serving sessions hold it without the table lock.
type hotEntry struct {
	size   int64    // original object size
	chunks [][]byte // len total, exactly d non-nil; GC-owned

	// wire is the entry's precomputed reply image, never nil: the d DATA
	// frames a hit replays, headers fully encoded at admission with only
	// the seq left as a hole. A hit is then a single SendPrebuilt — no
	// header encoding, no per-chunk Forward calls. The image pins the chunk
	// slices, which are immutable, so it shares the entry's lifetime
	// rules (GC reclaims both together after eviction).
	wire *protocol.Prebuilt
}

// buildWire precomputes the DATA-burst image for one admitted object:
// per chunk, the frame a node-served GET forwards — type DATA, the
// object key, args {index, object size, d, total, CRC32-C}, the chunk
// payload. The checksum is computed here — once per admission, off the
// hit path — so tier-served reads carry the same end-to-end integrity
// arg as node-served ones. nil means a frame is over the wire limits.
func buildWire(key string, size int64, d, total int, chunks [][]byte) *protocol.Prebuilt {
	w := &protocol.Prebuilt{}
	var args [5]int64
	for i, chunk := range chunks {
		if chunk == nil {
			continue
		}
		args = [5]int64{int64(i), size, int64(d), int64(total), protocol.ChunkSum(key, i, chunk)}
		if err := w.Append(protocol.TData, key, "", args[:], chunk); err != nil {
			return nil
		}
	}
	return w
}

// HotGet looks key up in the hot tier, which must be on. A hit returns
// the resident copy and sets the entry's pool CLOCK bit as well, so an
// object the tier serves does not look cold to pool eviction. A miss
// reports whether the caller should read-admit the key — the policy has
// seen it before — once it knows the object's size and the policy
// Admits it.
func (t *mappingTable) HotGet(key string) (e *hotEntry, capture bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hit, capture := t.tier.Get(key)
	if !hit {
		t.stats.HotMisses.Add(1)
		return nil, capture
	}
	t.stats.HotHits.Add(1)
	t.lru.Touch(key)
	return t.objects[key].hot, false
}

// hotCapture is one object's tier admission in flight, the same for a
// PUT generation's write-through (its SET frames as they pass) and a
// GET's read-through (the DATA frames it forwards): GC-owned copies of
// the first d distinct chunk payloads, sparse by chunk index, taken
// from the mapping entry of incarnation epoch.
type hotCapture struct {
	key    string
	epoch  uint64 // BeginObject's for a write-through, Lookup's for a read-through
	size   int64  // original object size
	d      int
	have   int      // chunks captured, at most d
	chunks [][]byte // len total
}

func newHotCapture(key string, epoch uint64, size int64, d, total int) *hotCapture {
	return &hotCapture{key: key, epoch: epoch, size: size, d: d, chunks: make([][]byte, total)}
}

// add captures chunk idx's payload unless d are already in hand. The
// copy is GC-owned, never pooled: the frame's buffer is recycled as
// soon as its hop completes, while a tier entry outlives it.
func (c *hotCapture) add(idx int, payload []byte) {
	if c.have < c.d && idx < len(c.chunks) && c.chunks[idx] == nil {
		c.chunks[idx] = append([]byte(nil), payload...)
		c.have++
	}
}

// AdmitHot makes a capture that reached its d chunks the resident copy
// of its key, if the key still maps the incarnation the capture came
// from: an overwrite, DEL or drop since then replaced or removed that
// entry, so a superseded payload is never resurrected. The reply image
// is built outside the lock, from immutable inputs. Nothing changes
// when the capture is short (a frame of the generation never passed
// the session), when the image cannot be built, or when the policy
// refuses the object (it alone exceeds the tier); otherwise the
// policy's eviction victims lose their copies. The image cannot fail
// for a capture: every key and chunk it copied arrived in a frame the
// reader already held to the same wire limits.
func (t *mappingTable) AdmitHot(c *hotCapture) {
	if c.have < c.d {
		return
	}
	wire := buildWire(c.key, c.size, c.d, len(c.chunks), c.chunks)
	if wire == nil {
		return
	}
	var bytes int64
	for _, chunk := range c.chunks {
		bytes += int64(len(chunk))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.objects[c.key]
	if o == nil || o.Epoch != c.epoch {
		return
	}
	ok, evicted := t.tier.Insert(c.key, bytes)
	if !ok {
		return
	}
	o.hot = &hotEntry{size: c.size, chunks: c.chunks, wire: wire}
	for _, victim := range evicted {
		t.objects[victim].hot = nil
	}
	t.stats.HotEvictions.Add(int64(len(evicted)))
	t.stats.HotBytes.Store(t.tier.Bytes())
}
