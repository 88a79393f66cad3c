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
// Admission is write-through and read-through, both gated by a ghost
// filter (a payload-less CLOCK cache of recently-seen keys): the first
// touch of a key only registers it; a second touch within the ghost
// window admits. One-shot writes and scan reads therefore never
// displace the resident set. Objects larger than maxObj are never
// admitted.
//
// Buffer ownership: tier chunk copies are plain GC-owned allocations,
// never drawn from bufpool. An invalidation or eviction may race a hit
// whose DATA frames are still being forwarded; dropping the reference
// and letting the garbage collector reclaim the bytes once the last
// Forward returns is what makes that race safe with no reference
// counting.
type hotTier struct {
	mu     sync.Mutex
	cap    int64 // resident-bytes bound (payload bytes)
	maxObj int64 // admission size threshold

	entries map[string]*hotEntry
	clock   *clockcache.Cache // resident keys, CLOCK eviction order
	ghost   *clockcache.Cache // admission filter: keys seen, no payload
	ghostN  int               // ghost capacity in keys

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
	bytes  int64    // sum of chunk lengths (accounting size)

	// wire is the entry's precomputed reply image: the d DATA frames a
	// hit replays, headers fully encoded at admission with only the seq
	// left as a hole. A hit is then a single SendPrebuilt — no header
	// encoding, no per-chunk Forward calls. The image pins the chunk
	// slices, which are immutable, so it shares the entry's lifetime
	// rules (GC reclaims both together after eviction).
	wire *protocol.Prebuilt
}

// buildWire precomputes the DATA-burst image for one admitted object.
// Frame layout matches what serveHot's per-chunk Forward loop produced:
// type DATA, the object key, args {index, object size, d, total,
// CRC32-C}, the chunk payload. The checksum is computed here — once per
// admission, off the hit path — so tier-served reads carry the same
// end-to-end integrity arg as node-served ones.
func buildWire(key string, size int64, d, total int, chunks [][]byte) *protocol.Prebuilt {
	w := &protocol.Prebuilt{}
	var args [5]int64
	for i, chunk := range chunks {
		if chunk == nil {
			continue
		}
		args = [5]int64{int64(i), size, int64(d), int64(total), protocol.ChunkSum(key, i, chunk)}
		if err := w.Append(protocol.TData, key, "", args[:], chunk); err != nil {
			return nil // over wire limits; caller falls back to Forward
		}
	}
	return w
}

// lastInvalCap bounds the per-key invalidation map; past it the map is
// reset and floor fences off every token issued so far (strictly more
// conservative: pending inserts are dropped, never served stale).
const lastInvalCap = 1 << 16

func newHotTier(capBytes, maxObjBytes int64, stats *Stats) *hotTier {
	ghostN := int(capBytes >> 14) // ~4 ghost keys per 64 KiB of capacity
	if ghostN < 1024 {
		ghostN = 1024
	}
	return &hotTier{
		cap:       capBytes,
		maxObj:    maxObjBytes,
		entries:   make(map[string]*hotEntry),
		clock:     clockcache.New(),
		ghost:     clockcache.New(),
		ghostN:    ghostN,
		lastInval: make(map[string]uint64),
		stats:     stats,
	}
}

// get looks key up. On a hit it touches the CLOCK bit and returns the
// entry (the caller may forward its chunks lock-free; see hotEntry). On
// a miss it returns a capture token and whether the caller should
// read-admit the key (ghost filter already saw it); a first miss only
// registers the key in the ghost filter.
func (h *hotTier) get(key string) (e *hotEntry, token uint64, capture bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e = h.entries[key]; e != nil {
		h.clock.Touch(key)
		h.stats.HotHits.Add(1)
		return e, 0, false
	}
	h.stats.HotMisses.Add(1)
	if h.ghost.Contains(key) {
		capture = true
	} else {
		h.ghostAddLocked(key)
	}
	return nil, h.seq, capture
}

// peek returns key's resident entry without touching the CLOCK bit or
// the hit/miss counters — the migration fast path reads through here,
// and background traffic must not distort recency or the stats.
func (h *hotTier) peek(key string) *hotEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entries[key]
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
// GET must never observe a superseded generation) and decides
// write-through admission — the key is admitted if it is ghost-known
// and the object fits under maxObj. Residency earns nothing: an insert
// leaves the ghost filter, and BeginObject has already dropped the old
// mapping entry — which invalidates the tier — by the time it asks, so
// an overwritten resident key re-registers like a first touch. The
// returned token validates the eventual insert. In the live proxy this
// runs inside mappingTable.BeginObject's critical section (lock order
// table.mu → h.mu), so the tier's invalidation order can never invert
// the table's epoch order when two sessions race PUTs to one key.
func (h *hotTier) beginPut(key string, objSize int64) (admit bool, token uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.invalidateLocked(key)
	if objSize <= 0 || objSize > h.maxObj {
		return false, 0
	}
	if h.ghost.Contains(key) {
		return true, h.seq
	}
	h.ghostAddLocked(key)
	return false, 0
}

// invalidate removes key from the tier (DEL path). Safe when absent.
func (h *hotTier) invalidate(key string) {
	h.mu.Lock()
	h.invalidateLocked(key)
	h.mu.Unlock()
}

func (h *hotTier) invalidateLocked(key string) {
	h.seq++
	if len(h.lastInval) >= lastInvalCap {
		h.lastInval = make(map[string]uint64)
		h.floor = h.seq
	}
	h.lastInval[key] = h.seq
	if e := h.entries[key]; e != nil {
		delete(h.entries, key)
		h.clock.Remove(key)
		h.stats.HotBytes.Add(-e.bytes)
	}
}

// hotCapture is one object's tier admission in flight, the same for a
// PUT generation's write-through (its SET frames as they pass) and a
// GET's read-through (the DATA frames it forwards): GC-owned copies of
// the first d distinct chunk payloads, sparse by chunk index, inserted
// under the token the capture began with.
type hotCapture struct {
	token  uint64 // from get/beginPut; fences the insert against later writes
	size   int64  // original object size
	d      int
	have   int      // chunks captured, at most d
	chunks [][]byte // len total
}

func newHotCapture(token uint64, size int64, d, total int) *hotCapture {
	return &hotCapture{token: token, size: size, d: d, chunks: make([][]byte, total)}
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
func (h *hotTier) admit(key string, c *hotCapture) {
	if c.have == c.d {
		h.insert(key, c.size, c.d, len(c.chunks), c.chunks, c.token)
	}
}

// insert admits one object captured under token. chunks must be sparse
// by index with exactly d non-nil entries; ownership passes to the tier
// (the slices must be fresh, GC-owned copies). The insert is dropped if
// any invalidation for key landed after token was issued, or if the
// object alone exceeds the tier capacity. Eviction then runs the CLOCK
// hand until the resident set fits again.
func (h *hotTier) insert(key string, size int64, d, total int, chunks [][]byte, token uint64) {
	var bytes int64
	for _, c := range chunks {
		bytes += int64(len(c))
	}
	if bytes > h.cap {
		return
	}
	// Encode the reply image outside the lock: header encoding is pure
	// CPU work on immutable inputs, and a stale capture (checked below)
	// just lets the image die with the entry.
	wire := buildWire(key, size, d, total, chunks)
	h.mu.Lock()
	defer h.mu.Unlock()
	if token < h.floor || token < h.lastInval[key] {
		return // a write superseded this capture; never resurrect it
	}
	if old := h.entries[key]; old != nil {
		h.stats.HotBytes.Add(-old.bytes)
	}
	h.entries[key] = &hotEntry{size: size, d: d, total: total, chunks: chunks, bytes: bytes, wire: wire}
	h.clock.Add(key, bytes)
	h.ghost.Remove(key)
	h.stats.HotBytes.Add(bytes)
	for h.stats.HotBytes.Load() > h.cap {
		victim := h.clock.Evict()
		if victim == nil {
			break
		}
		if e := h.entries[victim.Key]; e != nil {
			delete(h.entries, victim.Key)
			h.stats.HotBytes.Add(-e.bytes)
			h.stats.HotEvictions.Add(1)
			// The evicted key stays warm in the ghost filter so a
			// prompt re-read re-admits it.
			h.ghostAddLocked(victim.Key)
		}
	}
}

// ghostAddLocked registers key in the admission filter, bounding the
// filter at ghostN keys (every entry has size 1, so Size() counts
// keys).
func (h *hotTier) ghostAddLocked(key string) {
	h.ghost.Add(key, 1)
	if h.ghost.Len() > h.ghostN {
		h.ghost.EvictUntil(int64(h.ghostN))
	}
}
