package clockcache

// Tier is the hot-object tier's policy: which keys are resident and how
// many bytes each accounts for, which keys have merely been seen (the
// ghost filter), what may be admitted, and what is evicted to make room.
// It holds no payloads and no locks — the live proxy wraps it with the
// key → payload map and the token fence that concurrency needs
// (internal/proxy/hottier.go), the simulator calls it bare — so both run
// the same decisions on the same key stream.
//
// Admission is frequency-gated: the first touch of a key (a GET miss or
// a PUT) only registers it in the ghost filter, a second touch within
// the ghost window admits. One-shot writes and scan reads therefore
// never displace the resident set. Objects over the size threshold are
// never admitted, on either path. Eviction runs the CLOCK hand over the
// resident set until it fits the byte cap again. A key that leaves the
// resident set — a CLOCK victim or an invalidation — re-enters the ghost
// filter, so it keeps its admission credit: a prompt re-read re-admits
// it, and an overwrite of a resident key is written through.
type Tier struct {
	cap    int64 // resident-bytes bound
	maxObj int64 // admission size threshold

	resident *Cache // resident keys → accounted bytes, CLOCK eviction order
	ghost    *Cache // admission filter: keys seen, every entry size 1
	ghostN   int    // ghost capacity in keys
}

// NewTier returns an empty tier of capBytes resident bytes admitting
// objects of at most maxObjBytes (0 or negative: 1 MiB).
func NewTier(capBytes, maxObjBytes int64) *Tier {
	if maxObjBytes <= 0 {
		maxObjBytes = 1 << 20
	}
	ghostN := int(capBytes >> 14) // ~4 ghost keys per 64 KiB of capacity
	if ghostN < 1024 {
		ghostN = 1024
	}
	return &Tier{
		cap:      capBytes,
		maxObj:   maxObjBytes,
		resident: New(),
		ghost:    New(),
		ghostN:   ghostN,
	}
}

// Bytes returns the resident set's accounted bytes; never above the cap
// once Insert has returned.
func (t *Tier) Bytes() int64 { return t.resident.Size() }

// Admits reports whether an object of objSize bytes is under the
// admission threshold — the one place the threshold is compared.
// BeginPut asks it for write-through; a caller that learnt from Get
// that a key is ghost-warm asks it, once the object's size is known,
// before capturing anything for a read-through Insert. It reads only
// the tier's immutable configuration.
func (t *Tier) Admits(objSize int64) bool { return objSize <= t.maxObj }

// Get looks key up. A hit touches the CLOCK bit. On a miss, capture
// reports that the ghost filter has seen the key before, so the caller
// should read-admit it (subject to Admits); a first miss only registers
// the key.
func (t *Tier) Get(key string) (hit, capture bool) {
	if t.resident.Touch(key) {
		return true, false
	}
	if t.ghost.Contains(key) {
		return false, true
	}
	t.ghostAdd(key)
	return false, false
}

// BeginPut is called once per PUT generation, before the write lands
// anywhere: it invalidates any resident entry for key and decides
// write-through admission — the key is admitted if it is ghost-known
// and the object is under the threshold. Invalidation returns a
// resident key to the ghost filter, so an overwrite of a resident key
// is admitted, whether its entry is dropped here or by the caller
// first: the new version is written through.
func (t *Tier) BeginPut(key string, objSize int64) (admit bool) {
	t.Invalidate(key)
	if objSize <= 0 || !t.Admits(objSize) {
		return false
	}
	if t.ghost.Contains(key) {
		return true
	}
	t.ghostAdd(key)
	return false
}

// Invalidate removes key from the resident set (superseding write,
// delete, mapping drop). A key that was resident re-enters the ghost
// filter, as a CLOCK victim does: the next write or read of it admits.
// Invalidating a key that was not resident registers nothing.
func (t *Tier) Invalidate(key string) {
	if _, ok := t.resident.Remove(key); ok {
		t.ghostAdd(key)
	}
}

// Insert makes key resident at the given accounted bytes, replacing any
// earlier entry, and runs the CLOCK hand until the resident set fits the
// cap. ok is false, and nothing changes, when the object alone exceeds
// the cap. evicted lists the victims: the caller drops whatever it
// holds for them.
func (t *Tier) Insert(key string, bytes int64) (ok bool, evicted []string) {
	if bytes > t.cap {
		return false, nil
	}
	t.resident.Add(key, bytes)
	t.ghost.Remove(key)
	for _, victim := range t.resident.EvictUntil(t.cap) {
		evicted = append(evicted, victim.Key)
		t.ghostAdd(victim.Key)
	}
	return true, evicted
}

// ghostAdd registers key in the admission filter, bounded at ghostN
// keys (every entry has size 1, so Size() counts keys).
func (t *Tier) ghostAdd(key string) {
	t.ghost.Add(key, 1)
	t.ghost.EvictUntil(int64(t.ghostN))
}
