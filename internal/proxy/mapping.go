package proxy

import (
	"errors"
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
	Present bool  // false until committed, and once lost
	// Lost marks a committed chunk known gone: its node answered MISS
	// (MarkChunkLost) or it failed its checksum twice (NoteChunkCorrupt).
	// It is what the proxy reports to a reader for repair, and the only
	// slot a recovery re-insert fills. A slot an in-flight PUT has not
	// committed yet is neither present nor lost. Any commit clears it.
	// A lost slot's Node is the node it was lost on until Place aims a
	// repair elsewhere; either way no other chunk goes there.
	Lost bool
	// Aimed marks a slot whose generation's SET Place has sent to Node
	// and which has not committed yet: the node is about to hold this
	// chunk key, so an older incarnation's copy there is not deleted
	// (see NewerOn). Any commit clears it.
	Aimed bool

	// Sum is the chunk's CRC32-C, recorded at commit from the writing
	// SET. Read-backs from nodes are verified against it; a mismatch is
	// transit or storage corruption, never forwarded to a client.
	Sum int64
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

	// hot is the object's hot-tier copy, nil unless the tier holds it
	// (hottier.go). It is set and cleared under the table lock, in step
	// with the policy's resident set, and goes with the entry on a drop.
	hot *hotEntry
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
	used     int64 // the sum of nodeUsed
	// held is, per node, the entries with a chunk present on it and
	// that chunk's index (one at most: no two chunks of an entry share
	// a node).
	held     []map[*objMeta]int
	nodeCap  int64
	epochSeq uint64 // source of objMeta.Epoch

	// tier is the hot tier's policy, nil when the tier is off: in a
	// proxy a key is resident exactly when its entry's hot copy is set.
	// stats takes its Hot* counters.
	tier  *clockcache.Tier
	stats *Stats
	// nodes is what Place reads of the node dispatchers; set once, so
	// no SET converts the pool to an interface value.
	nodes nodeStates
}

// MappingTable is the mapping table as the simulator (internal/sim)
// drives it: the same entries, placement, CLOCK eviction and repair
// rules as a proxy's, with no node dispatchers behind it.
type MappingTable = mappingTable

// NewMappingTable returns an empty table over nodes nodes of
// nodeCapBytes each. tier is the hot tier's policy, nil for none: every
// entry the table drops leaves it, and BeginObject takes its
// write-through decision. Every node reads as asleep until a proxy
// installs its dispatchers.
func NewMappingTable(nodes int, nodeCapBytes int64, tier *clockcache.Tier) *MappingTable {
	t := &mappingTable{
		objects:  make(map[string]*objMeta),
		lru:      clockcache.New(),
		nodeUsed: make([]int64, nodes),
		held:     make([]map[*objMeta]int, nodes),
		nodeCap:  nodeCapBytes,
		tier:     tier,
		nodes:    asleep{},
	}
	for i := range t.held {
		t.held[i] = make(map[*objMeta]int)
	}
	return t
}

// account adds delta bytes to node's accounted usage.
func (t *mappingTable) account(node int, delta int64) {
	t.nodeUsed[node] += delta
	t.used += delta
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
	return t.used
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
// With the hot tier on, admit reports the policy's write-through
// decision, taken under the same lock after the old entry (and its tier
// copy) is gone; the generation's capture is admitted later against the
// returned epoch (AdmitHot).
//
// streamSize/stripeData carry a multi-stripe head's stream geometry
// (zero for legacy objects and stripe entries). Multi-stripe heads and
// stripe entries are never admitted to the hot tier: the tier caches
// whole objects and the ranged read path bypasses it, so only legacy
// single-stripe objects (which a single-stripe streamed PUT is
// indistinguishable from) earn residency.
func (t *mappingTable) BeginObject(key string, size int64, d, total int, streamSize, stripeData int64) (dels []evictedChunk, epoch uint64, admit bool) {
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
	if _, stripe := protocol.ParseStripeKey(key); t.tier != nil && streamSize == 0 && stripe == 0 {
		admit = t.tier.BeginPut(key, size)
	}
	return dels, t.epochSeq, admit
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
// accounting, and returns the chunk deletions to push to nodes. The key
// leaves the hot tier, and the entry's copy goes with it.
func (t *mappingTable) dropOneLocked(o *objMeta) []evictedChunk {
	if t.tier != nil {
		t.tier.Invalidate(o.Key)
	}
	if o.hot != nil {
		t.stats.HotBytes.Store(t.tier.Bytes())
	}
	var dels []evictedChunk
	for i, c := range o.Chunks {
		if c.Size > 0 {
			t.account(c.Node, -c.Size)
			if c.Present {
				delete(t.held[c.Node], o)
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

// ErrNoCapacity is wrapped by Place and Reserve failures.
var ErrNoCapacity = fmt.Errorf("proxy: chunk exceeds pool capacity")

// nodeStates is what placement reads of the node dispatchers: whether
// node i is running, and how many requests it holds, queued plus in
// flight. Both are published atomics, read without a lock.
type nodeStates interface {
	awake(i int) bool
	load(i int) int
}

// asleep is the node states of a table no proxy dispatches for: every
// node asleep, so Place keeps each hint its writer's set allows.
type asleep struct{}

func (asleep) awake(int) bool { return false }
func (asleep) load(int) int   { return 0 }

// NodeSet is a bitmap of node indexes: the nodes one PUT generation has
// placed chunks on.
type NodeSet []uint64

// NewNodeSet returns an empty set over nodes nodes.
func NewNodeSet(nodes int) NodeSet { return make(NodeSet, (nodes+63)/64) }

func (s NodeSet) has(n int) bool { return s[n>>6]&(1<<(n&63)) != 0 }
func (s NodeSet) add(n int)      { s[n>>6] |= 1 << (n & 63) }

// errNoObject answers a recovery SET whose object is not mapped: there
// is nothing to repair.
var errNoObject = errors.New("proxy: recovery for unknown object")

// Place is the one placement rule for a chunk SET — PUT, MPut, stripe,
// handoff and recovery alike — and reserves size bytes on the node it
// picks (reserveLocked). The writer's node is a hint: only the proxy
// knows which nodes are running and where the object's other chunks
// live. gen is the PUT generation's nodes so far, and epoch the
// incarnation it created; a recovery SET has neither (nil, 0), and its
// own set is the entry's other slots (sibling). The pick:
//
//   - the hint stands when it is not in the writer's own set and its
//     node is awake, or the entry spans the whole pool;
//   - else the least loaded awake node (requests held, then accounted
//     bytes) that is not in the writer's set, that key's current entry
//     does not name at all (occupied, chunk idx's own lost slot
//     included: a move never volunteers a chunk to the node that just
//     lost it), that has room for size bytes and that holds no more
//     than the pool's average. A move never overfills a node, and
//     never feeds running nodes at the expense of sleeping ones: once
//     the running nodes hold more than their share, chunks stay on
//     their hints, so a node that sleeps still gets its share of
//     chunks and the pool's objects keep independent placements;
//   - else the first node from the hint in index order that is not in
//     the writer's set and holds no chunk of the entry, and failing
//     that the hint.
//
// With every node asleep, that is the hint unless the writer's own set
// rules it out. The pick joins gen, or for a recovery the lost slot, so
// the next chunk of the same write avoids it; a generation's pick is
// also recorded as aimed in its own entry's slot.
func (t *mappingTable) Place(key string, idx, hint int, size int64, epoch uint64, gen NodeSet) (node int, dels []evictedChunk, evicted int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.objects[key]
	if o != nil && (idx < 0 || idx >= len(o.Chunks)) {
		o = nil
	}
	if gen == nil && o == nil {
		return hint, nil, 0, errNoObject
	}
	node = t.pickLocked(o, idx, hint, size, gen)
	if gen != nil {
		gen.add(node)
		if o != nil && o.Epoch == epoch && !o.Chunks[idx].Present && !o.Chunks[idx].Lost {
			o.Chunks[idx].Node, o.Chunks[idx].Aimed = node, true
		}
	} else if o.Chunks[idx].Lost {
		o.Chunks[idx].Node = node
	}
	dels, evicted, err = t.reserveLocked(node, size, key)
	return node, dels, evicted, err
}

// pickLocked is Place's choice of node; o is key's current entry, nil
// when there is none.
func (t *mappingTable) pickLocked(o *objMeta, idx, hint int, size int64, gen NodeSet) int {
	nodes := t.nodes
	own := func(n int) bool {
		if gen == nil {
			return o.sibling(idx, n)
		}
		return gen.has(n)
	}
	// An entry that spans the whole pool puts a chunk on every node
	// anyway: moving one off a sleeping node saves no invoke, it only
	// delays the one a later chunk will need there.
	if (nodes.awake(hint) || o != nil && o.TotalShards >= len(t.nodeUsed)) && !own(hint) {
		return hint
	}
	best, bestLoad := -1, 0
	if _, none := nodes.(asleep); !none {
		for n, used := range t.nodeUsed {
			if !nodes.awake(n) || used+size > t.nodeCap || used*int64(len(t.nodeUsed)) > t.used || own(n) || o != nil && o.occupied(-1, n) {
				continue
			}
			if l := nodes.load(n); best < 0 || l < bestLoad || l == bestLoad && used < t.nodeUsed[best] {
				best, bestLoad = n, l
			}
		}
	}
	if best >= 0 {
		return best
	}
	for i := range t.nodeUsed {
		if n := (hint + i) % len(t.nodeUsed); !own(n) && (o == nil || !o.occupied(idx, n)) {
			return n
		}
	}
	return hint
}

// Reserve accounts size bytes on node, evicting as reserveLocked does.
// The SET path reserves through Place, which picks the node first.
func (t *mappingTable) Reserve(node int, size int64, protect string) ([]evictedChunk, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reserveLocked(node, size, protect)
}

// reserveLocked accounts size bytes on node, evicting cold objects
// (CLOCK, at object granularity) while the *pool* lacks free memory —
// §3.2: "the proxy starts to evict objects as long as there is not
// enough free memory in the Lambda pool". Eviction is pool-level rather
// than per-node: the writer's hints are drawn at random and Place moves
// a chunk only onto a node with room, so per-node occupancy stays near
// the pool average and the Lambda's memory headroom absorbs the
// variance; per-node usage remains tracked for accounting. protect is
// the object key being written, which must not evict itself.
func (t *mappingTable) reserveLocked(node int, size int64, protect string) ([]evictedChunk, int, error) {
	poolCap := t.nodeCap * int64(len(t.nodeUsed))
	if size > poolCap {
		return nil, 0, fmt.Errorf("%w: %d bytes > pool capacity %d", ErrNoCapacity, size, poolCap)
	}
	var dels []evictedChunk
	evicted := 0
	// Protect the whole stripe family of the key being written: evicting
	// the head (or a sibling stripe) of an in-flight streamed PUT would
	// cascade the very entry the write is building.
	protectParent, _ := protocol.ParseStripeKey(protect)
	skips := 0
	for t.used+size > poolCap {
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
	if t.used+size > poolCap {
		return dels, evicted, fmt.Errorf("%w: pool full", ErrNoCapacity)
	}
	t.account(node, size)
	return dels, evicted, nil
}

// CommitChunk records a stored chunk's location; Place must have
// reserved the same size on node beforehand. epoch is the incarnation the
// writing generation created with BeginObject: a commit arriving after
// another session's overwrite replaced the entry must not splice one
// generation's chunk into another's (the RS decoder would mix shard
// sets into silent corruption). epoch 0 is a recovery re-insert, which
// belongs to no generation and is fenced by content instead: it commits
// only into a lost slot whose last committed chunk carried the same
// checksum (Sum survives MarkChunkLost and NoteChunkCorrupt), or re-acks
// a duplicate repair that already put that very chunk on node. A
// present chunk elsewhere (a straggler) is never moved, and a fresh
// incarnation's slots are not lost, so a repair computed from a
// superseded version can never land in them. No commit puts a chunk on
// a node that holds another chunk of the entry (sibling). Returns false
// (and releases the reservation) when the entry is gone, has moved on,
// holds different content or would co-locate two chunks; the caller
// then deletes the node's copy like any superseded chunk, unless a
// newer incarnation keeps that chunk key on the node (NewerOn). sum is
// the chunk's CRC32-C from its SET frame; it is stored so later
// read-backs can be verified end to end.
func (t *mappingTable) CommitChunk(key string, idx, node int, size int64, epoch uint64, sum int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	switch {
	case !ok || idx < 0 || idx >= len(o.Chunks) || o.sibling(idx, node):
		ok = false // dropped (eviction race), or two chunks on one node
	case epoch != 0:
		ok = o.Epoch == epoch // else superseded (overwrite race)
	default:
		c := o.Chunks[idx]
		ok = c.Sum == sum && (c.Lost || c.Present && c.Node == node)
	}
	if !ok {
		// Release the reservation.
		t.account(node, -size)
		return false
	}
	if old := o.Chunks[idx]; old.Size > 0 {
		t.account(old.Node, -old.Size)
		delete(t.held[old.Node], o)
	}
	o.Chunks[idx] = chunkLoc{Node: node, Size: size, Present: true, Sum: sum}
	t.held[node][o] = idx
	return true
}

// sibling reports whether node holds a chunk of o other than chunk idx,
// or is where a lost one was or is being repaired to: two lost chunks
// repaired in one burst must not be aimed at one node.
func (o *objMeta) sibling(idx, node int) bool {
	for i, c := range o.Chunks {
		if i != idx && (c.Present || c.Lost) && c.Node == node {
			return true
		}
	}
	return false
}

// occupied reports whether node holds a chunk of o, of any index, or
// is where another chunk than idx was lost or is being written or
// repaired to (idx -1: any chunk at all). A chunk Place moves off its
// hint must not land there: if its write is refused (a superseded
// generation, a repair of other content), the DEL of its copy would
// take the entry's own chunk with it, and a lost or aimed slot's node
// is where that slot's own chunk is about to go.
func (o *objMeta) occupied(idx, node int) bool {
	for i, c := range o.Chunks {
		if c.Node == node && (c.Present || i != idx && (c.Lost || c.Aimed)) {
			return true
		}
	}
	return false
}

// NewerOn reports whether key's current entry is an incarnation other
// than epoch that keeps chunk idx on node, committed or aimed: the
// node's copy of that chunk key may be the newer one, so a superseded
// chunk's DEL must not go out.
func (t *mappingTable) NewerOn(key string, idx, node int, epoch uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objects[key]
	if !ok || o.Epoch == epoch || idx < 0 || idx >= len(o.Chunks) {
		return false
	}
	c := o.Chunks[idx]
	return c.Node == node && (c.Present || c.Aimed)
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
	t.loseLocked(o, idx)
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
	t.account(node, -size)
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
	if c := o.Chunks[idx]; c.Present && c.Node == node {
		t.loseLocked(o, idx)
	}
	return o.presentChunks()
}

// MarkNodeLost flags every chunk present on node as gone, in one call:
// the node restarted empty, with no backup peer to take over its store.
// Slots aimed at the node but not committed are left alone. It returns
// how many chunks it marked.
func (t *mappingTable) MarkNodeLost(node int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.held[node])
	for o, idx := range t.held[node] {
		t.loseLocked(o, idx)
	}
	return n
}

// loseLocked turns o's present chunk idx into a lost one: its bytes are no
// longer on its node.
func (t *mappingTable) loseLocked(o *objMeta, idx int) {
	c := &o.Chunks[idx]
	c.Present, c.Lost = false, true
	o.Lost++
	t.account(c.Node, -c.Size)
	delete(t.held[c.Node], o)
	c.Size = 0
}

// ChunkKey derives the unique chunk identifier IDobj_chunk (§3.1):
// object key concatenated with the chunk sequence number. Built with one
// concatenation: it runs for every chunk request of every cold GET and
// PUT.
func ChunkKey(objKey string, idx int) string {
	return objKey + "#" + strconv.Itoa(idx)
}
