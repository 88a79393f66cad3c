package proxy

import (
	"sync"

	"infinicache/internal/clockcache"
	"infinicache/internal/protocol"
)

// hotTier is the proxy-resident hot-object cache: a size-capped,
// CLOCK-managed tier in front of the Lambda pool that short-circuits
// the d+p chunk round trips for small, frequently-read objects. Because
// the consistent-hash ring gives every key exactly one owning proxy,
// all SETs and DELs for a key traverse this proxy, so the tier is
// coherent by construction: every superseding write passes through
// beginPut (which invalidates synchronously) before any node traffic,
// and an insert only lands if no invalidation intervened since its
// capture began (the epoch token).
//
// What it stores: the object's chunk payloads, sparse by chunk index
// (exactly d of the total entries non-nil — the first d chunks a
// hotCapture saw: the data shards on the write-through path, whose SET
// frames arrive in index order, whichever d chunks streamed first on
// the read-through path), so a hit replays the same first-d DATA frames
// a node fan-in would have produced and the client-side decode path is
// untouched.
//
// What is policy — which keys are resident, the ghost admission
// filter, the size threshold, CLOCK eviction — is clockcache.Tier, the
// same object the simulator runs bare; this type adds only what a live,
// concurrent proxy needs on top: the payloads, the token fence, the lock
// and the Stats mirror.
//
// Buffer ownership: tier chunk copies are plain GC-owned allocations,
// never drawn from bufpool. An invalidation or eviction may race a hit
// whose DATA frames are still being forwarded; dropping the reference
// and letting the garbage collector reclaim the bytes once the last
// Forward returns is what makes that race safe with no reference
// counting.
type hotTier struct {
	mu sync.Mutex
	// policy decides residency, admission and eviction; entries holds a
	// payload for exactly the keys it reports resident. Guarded by mu,
	// except policy.Admits, which reads immutable configuration.
	policy  *clockcache.Tier
	entries map[string]*hotEntry

	// Invalidation epochs. Captures (a PUT's write-through copies, a
	// GET's read-through copies) take a token = seq at capture start; an
	// invalidation bumps seq and records it per key; insert succeeds only
	// if the key saw no invalidation after the token was issued. floor
	// invalidates every outstanding token when lastInval is reset.
	seq       uint64
	floor     uint64
	lastInval map[string]uint64

	stats *Stats
}

// hotEntry is one resident object. Immutable after insert: serving
// sessions hold chunk slices without the tier lock.
type hotEntry struct {
	size   int64    // original object size
	d      int      // data shards
	total  int      // total shards
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

// lastInvalCap bounds the per-key invalidation map; past it the map is
// reset and floor fences off every token issued so far (strictly more
// conservative: pending inserts are dropped, never served stale).
const lastInvalCap = 1 << 16

func newHotTier(capBytes, maxObjBytes int64, stats *Stats) *hotTier {
	return &hotTier{
		policy:    clockcache.NewTier(capBytes, maxObjBytes),
		entries:   make(map[string]*hotEntry),
		lastInval: make(map[string]uint64),
		stats:     stats,
	}
}

// get looks key up. On a hit it returns the entry (the caller may
// forward its chunks lock-free; see hotEntry). On a miss it returns a
// capture token and whether the caller should read-admit the key — the
// policy has seen it before — once it knows the object's size and
// policy.Admits it.
func (h *hotTier) get(key string) (e *hotEntry, token uint64, capture bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hit, capture := h.policy.Get(key)
	if hit {
		h.stats.HotHits.Add(1)
		return h.entries[key], 0, false
	}
	h.stats.HotMisses.Add(1)
	return nil, h.seq, capture
}

// resident reports whether key currently lives in the tier, with no
// side effects (backup META demotion asks this for every chunk).
func (h *hotTier) resident(key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entries[key] != nil
}

// beginPut is called once per PUT generation, before any chunk reaches
// a node: it synchronously invalidates any resident entry for key (a
// GET must never observe a superseded generation) and asks the policy
// for write-through admission. BeginObject has already dropped the old
// mapping entry — which invalidates the tier — by the time it asks; the
// policy returned a resident key to its ghost filter on that drop, so
// an overwrite of a resident key is admitted and the new version is
// written through. The returned token validates the eventual insert.
// In the live proxy this runs inside mappingTable.BeginObject's
// critical section (lock order table.mu → h.mu), so the tier's
// invalidation order can never invert the table's epoch order when two
// sessions race PUTs to one key.
func (h *hotTier) beginPut(key string, objSize int64) (admit bool, token uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fenceLocked(key)
	admit = h.policy.BeginPut(key, objSize)
	h.stats.HotBytes.Store(h.policy.Bytes())
	if !admit {
		return false, 0
	}
	return true, h.seq
}

// invalidate removes key from the tier (DEL path). Safe when absent.
func (h *hotTier) invalidate(key string) {
	h.mu.Lock()
	h.fenceLocked(key)
	h.policy.Invalidate(key)
	h.stats.HotBytes.Store(h.policy.Bytes())
	h.mu.Unlock()
}

// fenceLocked is the live half of an invalidation: every token issued
// so far is void for key, and its payload is dropped. The caller tells
// the policy.
func (h *hotTier) fenceLocked(key string) {
	h.seq++
	if len(h.lastInval) >= lastInvalCap {
		h.lastInval = make(map[string]uint64)
		h.floor = h.seq
	}
	h.lastInval[key] = h.seq
	delete(h.entries, key)
}

// hotCapture is one object's tier admission in flight, the same for a
// PUT generation's write-through (its SET frames as they pass) and a
// GET's read-through (the DATA frames it forwards): GC-owned copies of
// the first d distinct chunk payloads, sparse by chunk index, inserted
// under the token the capture began with.
type hotCapture struct {
	key    string
	token  uint64 // from get/beginPut; fences the insert against later writes
	size   int64  // original object size
	d      int
	have   int      // chunks captured, at most d
	chunks [][]byte // len total
}

func newHotCapture(key string, token uint64, size int64, d, total int) *hotCapture {
	return &hotCapture{key: key, token: token, size: size, d: d, chunks: make([][]byte, total)}
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

// admit inserts a capture that reached its d chunks; a short one (a
// frame of the generation never passed the session) is discarded.
func (h *hotTier) admit(c *hotCapture) {
	if c.have == c.d {
		h.insert(c.key, c.size, c.d, len(c.chunks), c.chunks, c.token)
	}
}

// insert admits one object captured under token. chunks must be sparse
// by index with exactly d non-nil entries; ownership passes to the tier
// (the slices must be fresh, GC-owned copies). The insert is dropped if
// its reply image cannot be built, if any invalidation for key landed
// after token was issued, or if the policy refuses it (the object alone
// exceeds the tier capacity); otherwise the payloads of the policy's
// eviction victims go with it. The image cannot fail for a capture:
// every key and chunk it copied arrived in a frame the reader already
// held to the same wire limits.
func (h *hotTier) insert(key string, size int64, d, total int, chunks [][]byte, token uint64) {
	var bytes int64
	for _, c := range chunks {
		bytes += int64(len(c))
	}
	// Encode the reply image outside the lock: header encoding is pure
	// CPU work on immutable inputs, and a stale capture (checked below)
	// just lets the image die with the entry.
	wire := buildWire(key, size, d, total, chunks)
	if wire == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if token < h.floor || token < h.lastInval[key] {
		return // a write superseded this capture; never resurrect it
	}
	ok, evicted := h.policy.Insert(key, bytes)
	if !ok {
		return
	}
	h.entries[key] = &hotEntry{size: size, d: d, total: total, chunks: chunks, wire: wire}
	for _, victim := range evicted {
		delete(h.entries, victim)
	}
	h.stats.HotEvictions.Add(int64(len(evicted)))
	h.stats.HotBytes.Store(h.policy.Bytes())
}
