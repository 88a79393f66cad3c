package proxy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"infinicache/internal/clockcache"
)

// Policy conformance: one seeded op stream is applied in lockstep to
// the bare policy (clockcache.Tier, as the simulator runs it) and to the
// live hotTier with real payloads. Every decision — hit, capture,
// admit, which keys an insert evicted, resident bytes — and the
// resident set must agree after every op, and the digest of the live
// side's decision stream must equal the recorded one, so a change to
// any decision is deliberate, not merely self-consistent. It was first
// recorded against the hotTier from before the policy moved into
// clockcache (the move preserved behaviour), and re-recorded when
// invalidation began returning a resident key to the ghost filter (the
// stream changed by design: 1438 → 1730 hits, 3079 → 3101 read
// captures, 1214 → 1867 write admits, 1389 → 1540 evictions).

const (
	conformanceSeed   = 19
	conformanceOps    = 10000
	conformanceKeys   = 4096     // Zipf support: the tail overflows the 1024-key ghost filter
	conformanceCap    = 48 << 10 // a few dozen residents: eviction and re-ghosting run continuously
	conformanceMaxObj = 4096
	conformanceD      = 4
	conformanceTotal  = 6

	// Recorded by running this driver; see the comment above.
	conformanceDigest = "9538334308e16a406fc30687e20578739f0ffef9388f12d4d8f788b32905a72d"
)

// conformanceSizes straddle the admission threshold.
var conformanceSizes = []int64{300, 1000, 2500, 4096, 4097, 6000}

// tierDecision is what one op decided, as both sides must report it.
type tierDecision struct {
	hit, capture, admit, inserted bool
	evicted                       int
	bytes                         int64
}

// storedObject stands in for the mapping table: what the key's current
// generation is, so payloads can be built and hits checked for
// staleness.
type storedObject struct {
	size    int64
	version int
}

func conformanceChunk(size int64) int64 { return (size + conformanceD - 1) / conformanceD }

// conformanceChunks builds the d data-shard payloads of one generation,
// sparse by index as a hotCapture leaves them, stamped so a hit can be
// recognised as this generation's bytes.
func conformanceChunks(keyIdx int, o storedObject) [][]byte {
	chunks := make([][]byte, conformanceTotal)
	for i := 0; i < conformanceD; i++ {
		c := make([]byte, conformanceChunk(o.size))
		binary.LittleEndian.PutUint32(c, uint32(keyIdx))
		binary.LittleEndian.PutUint32(c[4:], uint32(o.version))
		chunks[i] = c
	}
	return chunks
}

// liveSide drives proxy.hotTier the way a session and the mapping table
// do.
type liveSide struct {
	t  *testing.T
	h  *hotTier
	st *Stats
}

func (l *liveSide) settle(dec *tierDecision, key string, evictionsBefore int64) {
	dec.inserted = l.h.resident(key)
	dec.evicted = int(l.st.HotEvictions.Load() - evictionsBefore)
	dec.bytes = l.st.HotBytes.Load()
}

func (l *liveSide) get(keyIdx int, key string, o storedObject, exists bool) (dec tierDecision) {
	ev := l.st.HotEvictions.Load()
	e, token, capture := l.h.get(key)
	dec.hit, dec.capture = e != nil, capture
	if e != nil {
		got := storedObject{size: e.size, version: int(binary.LittleEndian.Uint32(e.chunks[0][4:]))}
		if got != o || int(binary.LittleEndian.Uint32(e.chunks[0])) != keyIdx {
			l.t.Fatalf("hit on %s served %+v, current generation is %+v", key, got, o)
		}
	} else if capture && exists && l.h.policy.Admits(o.size) {
		l.h.insert(key, o.size, conformanceD, conformanceTotal, conformanceChunks(keyIdx, o), token)
	}
	l.settle(&dec, key, ev)
	return dec
}

func (l *liveSide) put(keyIdx int, key string, o storedObject, existed bool) (dec tierDecision) {
	ev := l.st.HotEvictions.Load()
	if existed {
		l.h.invalidate(key) // BeginObject drops the old mapping entry first
	}
	admit, token := l.h.beginPut(key, o.size)
	dec.admit = admit
	if admit {
		l.h.insert(key, o.size, conformanceD, conformanceTotal, conformanceChunks(keyIdx, o), token)
	}
	l.settle(&dec, key, ev)
	return dec
}

func (l *liveSide) del(key string) (dec tierDecision) {
	l.h.invalidate(key)
	l.settle(&dec, key, l.st.HotEvictions.Load())
	return dec
}

// bareSide drives clockcache.Tier the way internal/sim does, tracking
// the resident set from the policy's own answers.
type bareSide struct {
	p        *clockcache.Tier
	resident map[string]bool
}

func (b *bareSide) insert(dec *tierDecision, key string, size int64) {
	ok, evicted := b.p.Insert(key, conformanceChunk(size)*conformanceD)
	if ok {
		b.resident[key] = true
	}
	for _, v := range evicted {
		delete(b.resident, v)
	}
	dec.evicted = len(evicted)
}

func (b *bareSide) settle(dec *tierDecision, key string) {
	dec.inserted = b.resident[key]
	dec.bytes = b.p.Bytes()
}

func (b *bareSide) get(key string, o storedObject, exists bool) (dec tierDecision) {
	dec.hit, dec.capture = b.p.Get(key)
	if !dec.hit && dec.capture && exists && b.p.Admits(o.size) {
		b.insert(&dec, key, o.size)
	}
	b.settle(&dec, key)
	return dec
}

func (b *bareSide) put(key string, o storedObject, existed bool) (dec tierDecision) {
	if existed {
		b.p.Invalidate(key)
	}
	delete(b.resident, key)
	if dec.admit = b.p.BeginPut(key, o.size); dec.admit {
		b.insert(&dec, key, o.size)
	}
	b.settle(&dec, key)
	return dec
}

func (b *bareSide) del(key string) (dec tierDecision) {
	b.p.Invalidate(key)
	delete(b.resident, key)
	b.settle(&dec, key)
	return dec
}

func TestHotPolicyConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(conformanceSeed))
	zipf := rand.NewZipf(rng, 1.1, 1, conformanceKeys-1)

	var st Stats
	live := &liveSide{t: t, h: newHotTier(conformanceCap, conformanceMaxObj, &st), st: &st}
	bare := &bareSide{p: clockcache.NewTier(conformanceCap, conformanceMaxObj), resident: make(map[string]bool)}
	store := make(map[string]storedObject)

	digest := sha256.New()
	hits, captures, admits, evictions := 0, 0, 0, 0
	for i := 0; i < conformanceOps; i++ {
		keyIdx := int(zipf.Uint64())
		key := fmt.Sprintf("k%04d", keyIdx)
		o, exists := store[key]
		var op byte
		var lv, bv tierDecision
		switch r := rng.Intn(100); {
		case r < 60:
			op = 'G'
			lv, bv = live.get(keyIdx, key, o, exists), bare.get(key, o, exists)
		case r < 95:
			op = 'P'
			o = storedObject{size: conformanceSizes[rng.Intn(len(conformanceSizes))], version: o.version + 1}
			lv, bv = live.put(keyIdx, key, o, exists), bare.put(key, o, exists)
			store[key] = o
		default:
			op = 'D'
			lv, bv = live.del(key), bare.del(key)
			delete(store, key)
		}
		if lv != bv {
			t.Fatalf("op %d %c %s: live decided %+v, bare policy %+v", i, op, key, lv, bv)
		}
		residents := make([]string, 0, len(live.h.entries))
		for k := range live.h.entries {
			if !bare.resident[k] {
				t.Fatalf("op %d %c %s: %s resident live, not in the bare policy", i, op, key, k)
			}
			residents = append(residents, k)
		}
		if len(residents) != len(bare.resident) {
			t.Fatalf("op %d %c %s: %d resident live, %d in the bare policy", i, op, key, len(residents), len(bare.resident))
		}
		if lv.bytes > conformanceCap {
			t.Fatalf("op %d: %d resident bytes exceed the %d cap", i, lv.bytes, conformanceCap)
		}
		sort.Strings(residents)
		fmt.Fprintf(digest, "%c %s %+v %v\n", op, key, lv, residents)

		if lv.hit {
			hits++
		}
		if lv.capture {
			captures++
		}
		if lv.admit {
			admits++
		}
		evictions += lv.evicted
	}
	// The stream must have exercised what it claims to.
	if hits < 500 || captures < 200 || admits < 200 || evictions < 500 {
		t.Fatalf("driver too tame: %d hits, %d read captures, %d write admits, %d evictions", hits, captures, admits, evictions)
	}
	t.Logf("%d hits, %d read captures, %d write admits, %d evictions, %d bytes resident at the end",
		hits, captures, admits, evictions, st.HotBytes.Load())
	if got := hex.EncodeToString(digest.Sum(nil)); got != conformanceDigest {
		t.Fatalf("decision-stream digest %s, recorded at the parent commit: %s", got, conformanceDigest)
	}
}
