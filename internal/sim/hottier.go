package sim

import "infinicache/internal/clockcache"

// hotModel is the discrete-event mirror of the proxy-resident
// hot-object tier (internal/proxy/hottier.go): a size-capped CLOCK
// cache in front of the Lambda pool whose hits cost no chunk fan-out —
// no invocations, no node transfer, just a proxy-memory copy. The
// policy is replicated exactly — ghost-filter admission (first touch
// registers, second touch admits), the maxObj threshold on both the
// write-through and read-through paths, CLOCK eviction with victims
// re-entering the ghost, invalidation on every superseding write and
// mapping drop — but none of the live tier's epoch-token fencing is
// needed: the simulator is sequential, so a capture can never race an
// invalidation.
type hotModel struct {
	cap    int64
	maxObj int64
	d      int // data shards; a resident object holds its d data chunks

	bytes   int64
	entries map[string]int64 // key -> resident payload bytes
	clock   *clockcache.Cache
	ghost   *clockcache.Cache
	ghostN  int

	hits, evictions int
}

func newHotModel(capBytes, maxObjBytes int64, d int) *hotModel {
	ghostN := int(capBytes >> 14) // ~4 ghost keys per 64 KiB, as live
	if ghostN < 1024 {
		ghostN = 1024
	}
	return &hotModel{
		cap:     capBytes,
		maxObj:  maxObjBytes,
		d:       d,
		entries: make(map[string]int64),
		clock:   clockcache.New(),
		ghost:   clockcache.New(),
		ghostN:  ghostN,
	}
}

// get mirrors hotTier.get: a hit touches the CLOCK bit; a miss reports
// whether the node-side fan-out should read-admit the key (the ghost
// filter has seen it before), registering first-touch keys.
func (h *hotModel) get(key string) (hit, capture bool) {
	if _, ok := h.entries[key]; ok {
		h.clock.Touch(key)
		h.hits++
		return true, false
	}
	if h.ghost.Contains(key) {
		return false, true
	}
	h.ghostAdd(key)
	return false, false
}

// beginPut mirrors hotTier.beginPut: every write invalidates any
// resident entry first, then the key is admitted if it is ghost-known
// and the object fits under maxObj. As live, residency earns nothing:
// the overwrite's mapping drop has already invalidated the entry.
func (h *hotModel) beginPut(key string, objSize int64) (admit bool) {
	h.invalidate(key)
	if objSize <= 0 || objSize > h.maxObj {
		return false
	}
	if h.ghost.Contains(key) {
		return true
	}
	h.ghostAdd(key)
	return false
}

// invalidate removes key from the tier (superseding write or mapping
// drop). Safe when absent.
func (h *hotModel) invalidate(key string) {
	if b, ok := h.entries[key]; ok {
		delete(h.entries, key)
		h.clock.Remove(key)
		h.bytes -= b
	}
}

// insert admits an object's d data-chunk payloads, then runs the CLOCK
// hand until the resident set fits; victims stay warm in the ghost.
func (h *hotModel) insert(key string, objSize int64) {
	bytes := chunkSize(objSize, h.d) * int64(h.d)
	if bytes > h.cap {
		return
	}
	if old, ok := h.entries[key]; ok {
		h.bytes -= old
	}
	h.entries[key] = bytes
	h.clock.Add(key, bytes)
	h.ghost.Remove(key)
	h.bytes += bytes
	for h.bytes > h.cap {
		victim := h.clock.Evict()
		if victim == nil {
			break
		}
		if b, ok := h.entries[victim.Key]; ok {
			delete(h.entries, victim.Key)
			h.bytes -= b
			h.evictions++
			h.ghostAdd(victim.Key)
		}
	}
}

func (h *hotModel) ghostAdd(key string) {
	h.ghost.Add(key, 1)
	if h.ghost.Len() > h.ghostN {
		h.ghost.EvictUntil(int64(h.ghostN))
	}
}
