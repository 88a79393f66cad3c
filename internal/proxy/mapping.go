package proxy

import (
	"fmt"
	"strconv"
	"sync"

	"infinicache/internal/clockcache"
	"infinicache/internal/protocol"
)

// chunkLoc records where one erasure-coded chunk lives.
type chunkLoc struct {
	Node    int   // index into the proxy's node list
	Size    int64 // bytes
	Present bool  // false once known lost (node reclaimed / MISS)

	// Sum is the chunk's CRC32-C, recorded at commit when the writing
	// SET carried one (HasSum). Read-backs from nodes are verified
	// against it; a mismatch is transit or storage corruption, never
	// forwarded to a client.
	Sum    int64
	HasSum bool
	// Strikes counts consecutive checksum failures on read-back. One
	// strike is treated as transit corruption (retry heals it); a second
	// means the stored bytes themselves are bad, and the chunk is
	// escalated to a positive loss so parity reconstruction repairs it.
	Strikes uint8
}

// objMeta is the mapping-table entry for one object.
type objMeta struct {
	Key         string
	Size        int64 // original object size
	DataShards  int
	TotalShards int
	Chunks      []chunkLoc
	// Epoch identifies this incarnation of the key: BeginObject bumps
	// it, so a GET op snapshotting the entry can tell whether the entry
	// it later reports losses against is still the one it read — a GET
	// racing an overwrite must neither mark the NEW generation's chunks
	// lost (its MISSes are answers about the old generation's chunks)
	// nor drop the new entry.
	Epoch uint64
	// Lost counts chunks positively lost (a node answered MISS after a
	// reclaim). present < d with Lost == 0 means the object is simply
	// mid-write: its chunks have not all committed yet.
	Lost int
	// Migrating marks an entry created by migration ingest
	// (BeginObjectIfAbsent). While such an entry is still incomplete,
	// a GET is answered with a fallback redirect toward the key's
	// previous owner — which by the drop-after-ack rule still holds a
	// servable copy — instead of a busy-write retry that could outlast
	// the client's retry budget (the ingest window spans node cold
	// starts). A foreground overwrite replaces the entry via
	// BeginObject, clearing the flag.
	Migrating bool

	// Stream geometry, set only on the head entry (stripe 0) of a
	// multi-stripe streamed object: StreamSize is the object's total
	// byte count across all stripes, StripeData the data bytes per full
	// stripe. Both zero on legacy single-stripe objects and on stripe
	// entries (whose Size is their own stripe's byte count).
	StreamSize int64
	StripeData int64
}

// stripeCount returns how many stripes this entry's object spans: 1
// for legacy objects and stripe entries, ceil(StreamSize/StripeData)
// for a multi-stripe head.
func (o *objMeta) stripeCount() int {
	if o.StripeData <= 0 {
		return 1
	}
	return protocol.StripeCount(o.StreamSize, o.StripeData)
}

// presentChunks counts chunks still believed present.
func (o *objMeta) presentChunks() int {
	n := 0
	for _, c := range o.Chunks {
		if c.Present {
			n++
		}
	}
	return n
}

// mappingTable is the proxy's record of chunk→Lambda associations plus
// the pool-memory accounting and CLOCK eviction state (§3.2). All methods
// are safe for concurrent use.
type mappingTable struct {
	mu       sync.Mutex
	objects  map[string]*objMeta
	lru      *clockcache.Cache
	nodeUsed []int64
	nodeCap  int64
	epochSeq uint64 // source of objMeta.Epoch

	// hot, when non-nil, is invalidated inside this table's critical
	// sections: dropping an entry (overwrite, DEL, pool eviction, loss)
	// invalidates the tier before the drop is visible, and BeginObject
	// runs the tier's invalidate+admission under t.mu so the table's
	// epoch order and the tier's invalidation order can never invert —
	// two sessions racing PUTs to one key serialise both structures
	// identically. Lock order is strictly table.mu → hotTier.mu; the
	// tier never calls back into the table.
	hot *hotTier
}

func newMappingTable(nodes int, nodeCapBytes int64) *mappingTable {
	return &mappingTable{
		objects:  make(map[string]*objMeta),
		lru:      clockcache.New(),
		nodeUsed: make([]int64, nodes),
		nodeCap:  nodeCapBytes,
	}
}

// Len returns the number of mapped objects.
func (t *mappingTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.objects)
}

// UsedBytes returns total accounted bytes across all nodes.
func (t *mappingTable) UsedBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s int64
	for _, u := range t.nodeUsed {
		s += u
	}
	return s
}

// NodeUsed returns the accounted bytes for one node.
func (t *mappingTable) NodeUsed(node int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodeUsed[node]
}

// Lookup returns a snapshot copy of the object's metadata and touches its
// CLOCK bit.
func (t *mappingTable) Lookup(key string) (objMeta, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	if !ok {
		return objMeta{}, false
	}
	t.lru.Touch(key)
	cp := *o
	cp.Chunks = append([]chunkLoc(nil), o.Chunks...)
	return cp, true
}

// Touch sets key's CLOCK bit without copying its metadata — a GET
// served from the hot tier still counts as pool-level recency, so the
// tier must keep the object's node chunks from looking cold.
func (t *mappingTable) Touch(key string) {
	t.mu.Lock()
	t.lru.Touch(key)
	t.mu.Unlock()
}

// delta describes eviction work produced while reserving space: chunks
// that must be deleted from nodes.
type evictedChunk struct {
	Node int
	Key  string // chunk key
}

// BeginObject prepares the table for a fresh PUT of key: any existing
// entry is dropped (cache invalidation upon overwrite, §3.1) and its
// chunk deletions are returned for asynchronous execution. The new
// incarnation's epoch is returned so the writing session can guard its
// commits and end-of-generation cleanup against later overwrites.
//
// The hot tier's invalidate+admission decision runs under the same
// critical section (see mappingTable.hot), so admit/token reflect the
// tier state at exactly this epoch.
//
// streamSize/stripeData carry a multi-stripe head's stream geometry
// (zero for legacy objects and stripe entries). Multi-stripe heads and
// stripe entries are never admitted to the hot tier: the tier caches
// whole objects and the ranged read path bypasses it, so only legacy
// single-stripe objects (which a single-stripe streamed PUT is
// indistinguishable from) earn residency.
func (t *mappingTable) BeginObject(key string, size int64, d, total int, streamSize, stripeData int64) (dels []evictedChunk, epoch uint64, admit bool, token uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.objects[key]; ok {
		// Overwriting a stripe entry is a replacement write for that
		// stripe alone (a retried stripe PUT must not cascade the live
		// head away); overwriting a head invalidates the whole family.
		if _, stripe := protocol.ParseStripeKey(key); stripe > 0 {
			dels = t.dropOneLocked(old)
		} else {
			dels = t.dropLocked(old)
		}
	}
	t.epochSeq++
	t.objects[key] = &objMeta{
		Key:         key,
		Size:        size,
		DataShards:  d,
		TotalShards: total,
		Chunks:      make([]chunkLoc, total),
		Epoch:       t.epochSeq,
		StreamSize:  streamSize,
		StripeData:  stripeData,
	}
	t.lru.Add(key, size)
	if _, stripe := protocol.ParseStripeKey(key); t.hot != nil && streamSize == 0 && stripe == 0 {
		admit, token = t.hot.beginPut(key, size)
	}
	return dels, t.epochSeq, admit, token
}

// BeginObjectIfAbsent creates a fresh mapping entry for key only when
// none exists, returning its epoch. This is the migration-ingest
// variant of BeginObject: an existing entry means the destination
// already holds a copy at least as new as the migrated one (a client
// PUT routed by the new ring always beats the background stream), so
// the stream's copy must be refused, never spliced over it. The one
// existing entry that is no copy is an ingest that never reached d
// chunks: what an earlier handoff of the key leaves when its connection
// dies before its session settles it. Refusing over that would have the
// source drop the only copy, so the new generation replaces it (the
// returned deletions are its committed chunks) and the earlier
// generation's late commits fail on the epoch. No hot-tier admission
// either — a migrated key earns tier residency through the ghost filter
// like any other read.
func (t *mappingTable) BeginObjectIfAbsent(key string, size int64, d, total int, streamSize, stripeData int64) (dels []evictedChunk, epoch uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, exists := t.objects[key]; exists {
		if !old.Migrating || old.Lost > 0 || old.presentChunks() >= old.DataShards {
			return nil, 0, false
		}
		dels = t.dropOneLocked(old)
	}
	t.epochSeq++
	t.objects[key] = &objMeta{
		Key:         key,
		Size:        size,
		DataShards:  d,
		TotalShards: total,
		Chunks:      make([]chunkLoc, total),
		Epoch:       t.epochSeq,
		Migrating:   true,
		StreamSize:  streamSize,
		StripeData:  stripeData,
	}
	t.lru.Add(key, size)
	return dels, t.epochSeq, true
}

// Keys returns a snapshot of every mapped object key (migration scan).
func (t *mappingTable) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.objects))
	for k := range t.objects {
		keys = append(keys, k)
	}
	return keys
}

// dropLocked removes an object and cascades across its stripe family:
// a streamed object is only readable when every stripe entry is, so
// dropping a multi-stripe head (DEL, pool eviction, loss verdict) also
// drops its stripe entries, and dropping a stripe entry (a CLOCK
// victim, a lost stripe) drops the head — which in turn names the
// sibling stripes to drop. Without the upward leg an evicted stripe
// would leave a permanently half-readable object behind an intact
// head. Non-streamed entries behave exactly as dropOneLocked.
func (t *mappingTable) dropLocked(o *objMeta) []evictedChunk {
	parent, stripe := protocol.ParseStripeKey(o.Key)
	if stripe > 0 {
		if h, ok := t.objects[parent]; ok && h.stripeCount() > stripe {
			o = h // dropping any stripe drops the whole object
		} else {
			return t.dropOneLocked(o) // orphaned stripe: head already gone
		}
	}
	dels := t.dropOneLocked(o)
	for s, n := 1, o.stripeCount(); s < n; s++ {
		if so, ok := t.objects[protocol.StripeKey(o.Key, s)]; ok {
			dels = append(dels, t.dropOneLocked(so)...)
		}
	}
	return dels
}

// dropOneLocked removes a single entry, releasing its memory
// accounting, and returns the chunk deletions to push to nodes. Every
// drop also invalidates the hot tier, so the tier can never hold an
// object the table no longer maps.
func (t *mappingTable) dropOneLocked(o *objMeta) []evictedChunk {
	if t.hot != nil {
		t.hot.invalidate(o.Key)
	}
	var dels []evictedChunk
	for i, c := range o.Chunks {
		if c.Size > 0 {
			t.nodeUsed[c.Node] -= c.Size
			if c.Present {
				dels = append(dels, evictedChunk{Node: c.Node, Key: ChunkKey(o.Key, i)})
			}
		}
	}
	delete(t.objects, o.Key)
	t.lru.Remove(o.Key)
	return dels
}

// Drop removes an object outright (DEL path), returning chunk deletions.
func (t *mappingTable) Drop(key string) []evictedChunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	if !ok {
		return nil
	}
	return t.dropLocked(o)
}

// DropIfEpoch removes an object only if it is still the incarnation the
// caller read (loss reporting): a GET that decided "lost" against an
// entry a concurrent overwrite has since replaced must not destroy the
// new generation. Returns ok=false (and drops nothing) when the entry
// is gone or has moved on.
func (t *mappingTable) DropIfEpoch(key string, epoch uint64) ([]evictedChunk, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	if !ok || o.Epoch != epoch {
		return nil, false
	}
	return t.dropLocked(o), true
}

// ErrNoCapacity is wrapped by Reserve failures.
var ErrNoCapacity = fmt.Errorf("proxy: chunk exceeds pool capacity")

// Reserve accounts size bytes on node, evicting cold objects (CLOCK, at
// object granularity) while the *pool* lacks free memory — §3.2: "the
// proxy starts to evict objects as long as there is not enough free
// memory in the Lambda pool". Eviction is pool-level rather than
// per-node: chunks are placed randomly, so per-node occupancy stays
// near the pool average and the Lambda's memory headroom absorbs the
// variance; per-node usage remains tracked for accounting. protect is
// the object key being written, which must not evict itself.
func (t *mappingTable) Reserve(node int, size int64, protect string) ([]evictedChunk, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	poolCap := t.nodeCap * int64(len(t.nodeUsed))
	if size > poolCap {
		return nil, 0, fmt.Errorf("%w: %d bytes > pool capacity %d", ErrNoCapacity, size, poolCap)
	}
	used := func() int64 {
		var s int64
		for _, u := range t.nodeUsed {
			s += u
		}
		return s
	}
	var dels []evictedChunk
	evicted := 0
	// Protect the whole stripe family of the key being written: evicting
	// the head (or a sibling stripe) of an in-flight streamed PUT would
	// cascade the very entry the write is building.
	protectParent, _ := protocol.ParseStripeKey(protect)
	skips := 0
	for used()+size > poolCap {
		victim := t.lru.Evict()
		if victim == nil {
			break
		}
		if vp, _ := protocol.ParseStripeKey(victim.Key); vp == protectParent {
			// Re-add the in-flight object and try the next victim; if
			// only protected entries remain the loop exits via the skip
			// bound.
			t.lru.Add(victim.Key, victim.Size)
			if skips++; skips > len(t.objects) {
				break
			}
			continue
		}
		o, ok := t.objects[victim.Key]
		if !ok {
			continue
		}
		dels = append(dels, t.dropLocked(o)...)
		evicted++
	}
	if used()+size > poolCap {
		return dels, evicted, fmt.Errorf("%w: pool full", ErrNoCapacity)
	}
	t.nodeUsed[node] += size
	return dels, evicted, nil
}

// CommitChunk records a stored chunk's location; Reserve must have been
// called for the same size beforehand. epoch is the incarnation the
// writing generation created with BeginObject: a commit arriving after
// another session's overwrite replaced the entry must not splice one
// generation's chunk into another's (the RS decoder would mix shard
// sets into silent corruption). epoch 0 is a recovery re-insert, which
// belongs to no generation and is fenced by content instead: it commits
// only into a slot whose last committed chunk in the current incarnation
// carried the same checksum — the object's true chunk content, whether
// the slot is lost (Sum survives MarkChunkLost and NoteChunkCorrupt) or
// a straggler being moved. A fresh incarnation's slots carry no sum, so
// a repair computed from a superseded version can never land in them.
// Returns false (and releases the reservation) when the entry is gone,
// has moved on, or holds different content; the caller then deletes the
// node's copy like any superseded chunk. On success, moved is the node
// whose copy the commit displaced (a straggler's old home), or -1: the
// caller deletes that copy, which the accounting no longer tracks.
// sum is the chunk's CRC32-C when hasSum is set (the SET frame carried
// one); it is stored so later read-backs can be verified end to end.
func (t *mappingTable) CommitChunk(key string, idx, node int, size int64, epoch uint64, sum int64, hasSum bool) (moved int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	switch {
	case !ok || idx < 0 || idx >= len(o.Chunks):
		ok = false // dropped (eviction race)
	case epoch != 0:
		ok = o.Epoch == epoch // else superseded (overwrite race)
	default:
		ok = hasSum && o.Chunks[idx].HasSum && o.Chunks[idx].Sum == sum
	}
	if !ok {
		// Release the reservation.
		t.nodeUsed[node] -= size
		return -1, false
	}
	old := o.Chunks[idx]
	moved = -1
	if old.Size > 0 {
		t.nodeUsed[old.Node] -= old.Size
		if old.Node != node {
			moved = old.Node
		}
	}
	o.Chunks[idx] = chunkLoc{Node: node, Size: size, Present: true, Sum: sum, HasSum: hasSum}
	return moved, true
}

// NoteChunkCorrupt records a checksum failure on a chunk read back from
// its node. The first strike is assumed to be transit corruption (the
// client retries; a clean re-read clears nothing — strikes only reset
// when the chunk is rewritten), the second means the stored bytes are
// bad: the chunk is escalated to a positive loss, which routes the
// object through degraded-read reconstruction and recovery re-insert.
// Guarded like MarkChunkLost. Returns whether the chunk was escalated to
// lost by this call.
func (t *mappingTable) NoteChunkCorrupt(key string, idx, node int, epoch uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	if !ok || o.Epoch != epoch || idx < 0 || idx >= len(o.Chunks) {
		return false
	}
	c := &o.Chunks[idx]
	if !c.Present || c.Node != node {
		return false
	}
	if c.Strikes++; c.Strikes < 2 {
		return false
	}
	c.Present = false
	o.Lost++
	t.nodeUsed[c.Node] -= c.Size
	c.Size = 0
	return true
}

// DropIfIncomplete drops key's entry if it is still the given
// incarnation AND can never serve a GET (fewer than d chunks present
// with none positively lost — the shape a failed or cancelled PUT
// leaves behind). The writing session calls this when a generation ends
// with uncommitted chunks, so the key reads as a clean MISS (RESET
// path) instead of "write in progress" forever. Returns the chunk
// deletions for whatever partial state had committed.
func (t *mappingTable) DropIfIncomplete(key string, epoch uint64) ([]evictedChunk, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	if !ok || o.Epoch != epoch || o.presentChunks() >= o.DataShards {
		return nil, false
	}
	// No cascade: a failed stripe generation is retried by the client
	// under the same key, so only this entry is cleared — a retry (or a
	// client-side DEL on final failure) decides the family's fate.
	return t.dropOneLocked(o), true
}

// ReleaseChunk undoes a reservation after a failed store.
func (t *mappingTable) ReleaseChunk(node int, size int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodeUsed[node] -= size
}

// MarkChunkLost flags a chunk as gone (node answered MISS after a
// reclaim). The caller passes the entry epoch its GET snapshotted and
// the node that answered: a MISS earned against a superseded
// incarnation, or from a node the chunk has since moved off (a recovery
// re-insert, whose DEL reached the old copy first), says nothing about
// the slot and is ignored. It returns how many chunks remain present.
func (t *mappingTable) MarkChunkLost(key string, idx, node int, epoch uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	if !ok || o.Epoch != epoch || idx < 0 || idx >= len(o.Chunks) {
		return 0
	}
	c := &o.Chunks[idx]
	if c.Present && c.Node == node {
		c.Present = false
		o.Lost++
		// The bytes are no longer on the node.
		t.nodeUsed[c.Node] -= c.Size
		c.Size = 0
	}
	return o.presentChunks()
}

// ChunkKey derives the unique chunk identifier IDobj_chunk (§3.1):
// object key concatenated with the chunk sequence number. Built with one
// concatenation: it runs for every chunk request of every cold GET and
// PUT.
func ChunkKey(objKey string, idx int) string {
	return objKey + "#" + strconv.Itoa(idx)
}
