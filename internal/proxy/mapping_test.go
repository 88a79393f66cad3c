package proxy

import (
	"errors"
	"fmt"
	"testing"
)

func newTable() *mappingTable {
	// 4 nodes x 1 MB.
	return NewMappingTable(4, 1<<20, nil)
}

func TestChunkKey(t *testing.T) {
	if got := ChunkKey("obj", 3); got != "obj#3" {
		t.Fatalf("ChunkKey = %q", got)
	}
}

func TestBeginCommitLookup(t *testing.T) {
	tb := newTable()
	dels, epoch, _ := tb.BeginObject("a", 1000, 2, 3, 0, 0)
	if len(dels) != 0 {
		t.Fatal("fresh BeginObject returned deletions")
	}
	if _, _, err := tb.Reserve(0, 500, "a"); err != nil {
		t.Fatal(err)
	}
	tb.CommitChunk("a", 0, 0, 500, epoch, 0)
	if _, _, err := tb.Reserve(1, 500, "a"); err != nil {
		t.Fatal(err)
	}
	tb.CommitChunk("a", 1, 1, 500, epoch, 0)

	meta, ok := tb.Lookup("a")
	if !ok {
		t.Fatal("object not found")
	}
	if meta.Size != 1000 || meta.DataShards != 2 || meta.TotalShards != 3 {
		t.Fatalf("meta = %+v", meta)
	}
	if !meta.Chunks[0].Present || !meta.Chunks[1].Present || meta.Chunks[2].Present {
		t.Fatalf("chunk presence wrong: %+v", meta.Chunks)
	}
	if tb.NodeUsed(0) != 500 || tb.NodeUsed(1) != 500 {
		t.Fatal("node accounting wrong")
	}
}

func TestLookupReturnsSnapshot(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 10, 1, 1, 0, 0)
	tb.Reserve(0, 10, "a")
	tb.CommitChunk("a", 0, 0, 10, epoch, 0)
	meta, _ := tb.Lookup("a")
	meta.Chunks[0].Present = false
	again, _ := tb.Lookup("a")
	if !again.Chunks[0].Present {
		t.Fatal("Lookup leaked internal state")
	}
}

func TestOverwriteReturnsDeletions(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, epoch, 0)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 1, 1, 50, epoch, 0)

	dels, _, _ := tb.BeginObject("a", 200, 1, 2, 0, 0)
	if len(dels) != 2 {
		t.Fatalf("overwrite returned %d deletions, want 2", len(dels))
	}
	if tb.NodeUsed(0) != 0 || tb.NodeUsed(1) != 0 {
		t.Fatal("old accounting not released")
	}
}

func TestDrop(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 100, 1, 1, 0, 0)
	tb.Reserve(2, 100, "a")
	tb.CommitChunk("a", 0, 2, 100, epoch, 0)
	dels := tb.Drop("a")
	if len(dels) != 1 || dels[0].Node != 2 || dels[0].Key != "a#0" {
		t.Fatalf("dels = %+v", dels)
	}
	if _, ok := tb.Lookup("a"); ok {
		t.Fatal("object still mapped after Drop")
	}
	if tb.Drop("a") != nil {
		t.Fatal("second Drop should be empty")
	}
}

func TestReserveEvictsAtPoolPressure(t *testing.T) {
	tb := newTable() // pool = 4 MB
	// Fill the pool with 4 x 1 MB objects (one chunk each).
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("o%d", i)
		_, epoch, _ := tb.BeginObject(key, 1<<20, 1, 1, 0, 0)
		if _, _, err := tb.Reserve(i, 1<<20, key); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		tb.CommitChunk(key, 0, i, 1<<20, epoch, 0)
	}
	// A new object must evict at least one victim.
	tb.BeginObject("new", 1<<20, 1, 1, 0, 0)
	dels, evicted, err := tb.Reserve(0, 1<<20, "new")
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 || len(dels) == 0 {
		t.Fatal("no eviction under pool pressure")
	}
	if tb.Len() > 5 {
		t.Fatalf("table holds %d objects", tb.Len())
	}
}

func TestReserveNeverEvictsProtected(t *testing.T) {
	tb := NewMappingTable(1, 1000, nil)
	_, epoch, _ := tb.BeginObject("self", 900, 1, 2, 0, 0)
	if _, _, err := tb.Reserve(0, 600, "self"); err != nil {
		t.Fatal(err)
	}
	tb.CommitChunk("self", 0, 0, 600, epoch, 0)
	// Second chunk exceeds the pool; the only candidate victim is the
	// protected object itself, so Reserve must fail rather than evict it.
	_, _, err := tb.Reserve(0, 600, "self")
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if _, ok := tb.Lookup("self"); !ok {
		t.Fatal("protected object was evicted")
	}
}

func TestReserveRejectsOversize(t *testing.T) {
	tb := newTable()
	if _, _, err := tb.Reserve(0, 5<<20, "x"); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestReleaseChunk(t *testing.T) {
	tb := newTable()
	tb.Reserve(1, 100, "a")
	tb.ReleaseChunk(1, 100)
	if tb.NodeUsed(1) != 0 {
		t.Fatal("release did not undo reservation")
	}
}

func TestCommitWithoutObjectReleases(t *testing.T) {
	tb := newTable()
	tb.Reserve(1, 100, "ghost")
	tb.CommitChunk("ghost", 0, 1, 100, 1, 0) // object never began: must release
	if tb.NodeUsed(1) != 0 {
		t.Fatal("orphan commit leaked accounting")
	}
}

func TestMarkChunkLost(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 100, 2, 3, 0, 0)
	for i := 0; i < 3; i++ {
		tb.Reserve(i, 40, "a")
		tb.CommitChunk("a", i, i, 40, epoch, 0)
	}
	if left := tb.MarkChunkLost("a", 0, 0, epoch); left != 2 {
		t.Fatalf("present after loss = %d, want 2", left)
	}
	if tb.NodeUsed(0) != 0 {
		t.Fatal("lost chunk still accounted")
	}
	// Double-mark is idempotent.
	if left := tb.MarkChunkLost("a", 0, 0, epoch); left != 2 {
		t.Fatal("double MarkChunkLost changed count")
	}
	if tb.MarkChunkLost("missing", 0, 0, 1) != 0 {
		t.Fatal("unknown object should report 0")
	}
}

// TestMarkNodeLost: a node that restarts empty loses exactly the chunks
// present on it, in one call; slots lost earlier, aimed at it or not
// yet committed stay as they are, and so do the other nodes.
func TestMarkNodeLost(t *testing.T) {
	tb := newTable()
	_, ea, _ := tb.BeginObject("a", 100, 2, 3, 0, 0)
	for i := 0; i < 3; i++ {
		tb.Reserve(i, 40, "a")
		tb.CommitChunk("a", i, i, 40, ea, 0)
	}
	// b's chunk 1 was lost on node 0 before, its chunk 0 sits on node 1.
	_, eb, _ := tb.BeginObject("b", 30, 1, 2, 0, 0)
	tb.Reserve(1, 30, "b")
	tb.CommitChunk("b", 0, 1, 30, eb, 0)
	tb.Reserve(0, 30, "b")
	tb.CommitChunk("b", 1, 0, 30, eb, 0)
	tb.MarkChunkLost("b", 1, 0, eb)
	// c's chunk 0 is aimed at node 0 and not committed; chunk 1 is unwritten.
	_, ec, _ := tb.BeginObject("c", 20, 1, 2, 0, 0)
	if node, _, _, err := tb.Place("c", 0, 0, 20, ec, NewNodeSet(4)); err != nil || node != 0 {
		t.Fatalf("Place = %d, %v; want node 0", node, err)
	}

	if n := tb.MarkNodeLost(0); n != 1 {
		t.Fatalf("MarkNodeLost(0) marked %d, want 1", n)
	}
	if got := []int64{tb.NodeUsed(0), tb.NodeUsed(1), tb.NodeUsed(2), tb.UsedBytes()}; got[0] != 20 || got[1] != 70 || got[2] != 40 || got[3] != 130 {
		t.Fatalf("node 0, 1, 2 and pool bytes = %v, want [20 70 40 130]", got)
	}
	if n := tb.MarkNodeLost(0); n != 0 {
		t.Fatalf("second MarkNodeLost(0) marked %d, want 0", n)
	}

	a, _ := tb.Lookup("a")
	if c := a.Chunks[0]; !c.Lost || c.Present {
		t.Fatalf("a#0 = %+v, want lost", c)
	}
	if !a.Chunks[1].Present || !a.Chunks[2].Present {
		t.Fatalf("a's chunks off node 0 = %+v, want present", a.Chunks[1:])
	}
	b, _ := tb.Lookup("b")
	if !b.Chunks[0].Present || !b.Chunks[1].Lost || b.Lost != 1 {
		t.Fatalf("b = %+v, want chunk 0 present and chunk 1 lost once", b)
	}
	c, _ := tb.Lookup("c")
	if c0, c1 := c.Chunks[0], c.Chunks[1]; !c0.Aimed || c0.Lost || c1.Lost || c1.Present {
		t.Fatalf("c = %+v, want chunk 0 aimed and chunk 1 unwritten", c.Chunks)
	}

	// A dropped entry's chunks are no longer the node's to lose.
	tb.Drop("a")
	if n := tb.MarkNodeLost(1); n != 1 {
		t.Fatalf("MarkNodeLost(1) after dropping a marked %d, want 1 (b#0)", n)
	}
}

// TestIngestReplacesIncompleteIngest: a handoff generation may ingest
// over an earlier handoff's entry that never reached d chunks — what a
// handoff leaves when its connection dies before its session settles
// it — but never over a complete ingest or an entry a PUT made.
func TestIngestReplacesIncompleteIngest(t *testing.T) {
	tb := newTable()
	_, first, ok := tb.BeginObjectIfAbsent("m", 100, 2, 3, 0, 0)
	if !ok {
		t.Fatal("ingest of an unknown key refused")
	}
	tb.Reserve(0, 40, "m")
	tb.CommitChunk("m", 0, 0, 40, first, 0)

	dels, second, ok := tb.BeginObjectIfAbsent("m", 100, 2, 3, 0, 0)
	if !ok || second == first {
		t.Fatalf("ingest over a 1-of-2 ingest: ok=%v epoch %d (first %d), want a fresh incarnation", ok, second, first)
	}
	if len(dels) != 1 || dels[0].Node != 0 || tb.NodeUsed(0) != 0 {
		t.Fatalf("replaced ingest's chunk: dels=%v, node 0 holds %d bytes; want it deleted and released", dels, tb.NodeUsed(0))
	}
	if ok := tb.CommitChunk("m", 1, 1, 40, first, 0); ok {
		t.Fatal("the replaced generation's late chunk committed")
	}
	for i := 0; i < 2; i++ {
		tb.Reserve(i, 40, "m")
		tb.CommitChunk("m", i, i, 40, second, 0)
	}
	if _, _, ok := tb.BeginObjectIfAbsent("m", 100, 2, 3, 0, 0); ok {
		t.Fatal("ingest replaced a complete ingest")
	}

	tb.BeginObject("p", 100, 2, 3, 0, 0) // a PUT's entry, no chunk yet
	if _, _, ok := tb.BeginObjectIfAbsent("p", 100, 2, 3, 0, 0); ok {
		t.Fatal("ingest replaced a PUT's entry")
	}
}

func mustEpoch(t *testing.T, tb *mappingTable, key string) uint64 {
	t.Helper()
	meta, ok := tb.Lookup(key)
	if !ok {
		t.Fatalf("object %q not mapped", key)
	}
	return meta.Epoch
}

// TestEpochGuards pins the overwrite-race rules: losses reported against
// a superseded incarnation (an older Epoch) neither taint the current
// entry's chunks nor drop it.
func TestEpochGuards(t *testing.T) {
	tb := newTable()
	_, oldEpoch, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, oldEpoch, 0)

	// Overwrite: a fresh incarnation replaces the entry.
	_, newEpoch, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 0, 1, 50, newEpoch, 0)

	// A stale GET's MISS must not mark the new chunk lost.
	tb.MarkChunkLost("a", 0, 1, oldEpoch)
	meta, _ := tb.Lookup("a")
	if !meta.Chunks[0].Present || meta.Lost != 0 {
		t.Fatal("stale-epoch MISS tainted the new incarnation")
	}
	// A stale GET's loss verdict must not drop the new entry.
	if _, ok := tb.DropIfEpoch("a", oldEpoch); ok {
		t.Fatal("stale-epoch drop removed the new incarnation")
	}
	if _, ok := tb.Lookup("a"); !ok {
		t.Fatal("new incarnation vanished")
	}
	// A stale GET's... and a stale COMMIT: a chunk acked after another
	// session's overwrite must not splice into the new incarnation.
	tb.Reserve(2, 50, "a")
	if ok := tb.CommitChunk("a", 1, 2, 50, oldEpoch, 0); ok {
		t.Fatal("stale-epoch commit spliced into the new incarnation")
	}
	if tb.NodeUsed(2) != 0 {
		t.Fatal("refused commit did not release its reservation")
	}
	// The current epoch still drops normally.
	if _, ok := tb.DropIfEpoch("a", meta.Epoch); !ok {
		t.Fatal("current-epoch drop refused")
	}
	if _, ok := tb.Lookup("a"); ok {
		t.Fatal("drop did not remove the entry")
	}
}

// TestRecoveryContentFence pins the one way a chunk commits without its
// generation's epoch: a recovery re-insert (epoch 0) lands only in a
// slot whose last committed chunk in the current incarnation carried the
// same checksum.
func TestRecoveryContentFence(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, epoch, 111)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 1, 1, 50, epoch, 222)
	tb.MarkChunkLost("a", 0, 0, epoch)

	// Recovery into a lost slot with the matching sum commits.
	tb.Reserve(2, 50, "a")
	if ok := tb.CommitChunk("a", 0, 2, 50, 0, 111); !ok {
		t.Fatal("recovery of a lost chunk with its own content refused")
	}
	if meta, _ := tb.Lookup("a"); !meta.Chunks[0].Present || meta.Chunks[0].Node != 2 {
		t.Fatalf("repaired slot = %+v", meta.Chunks[0])
	}
	// A straggler (slot present on another node, same sum) is refused,
	// and node 1 keeps its 50 bytes.
	tb.Reserve(3, 50, "a")
	if ok := tb.CommitChunk("a", 1, 3, 50, 0, 222); ok {
		t.Fatal("straggler re-insert moved a present chunk")
	}
	if tb.NodeUsed(1) != 50 || tb.NodeUsed(3) != 0 {
		t.Fatalf("refused straggler accounting: node1 %d, node3 %d", tb.NodeUsed(1), tb.NodeUsed(3))
	}
	// A different sum is refused and releases its reservation.
	tb.Reserve(1, 50, "a")
	if ok := tb.CommitChunk("a", 0, 1, 50, 0, 999); ok {
		t.Fatal("recovery carrying other content committed")
	}
	// So is a frame that carries no sum at all.
	tb.Reserve(1, 50, "a")
	if ok := tb.CommitChunk("a", 0, 1, 50, 0, 0); ok {
		t.Fatal("sum-less recovery committed")
	}
	if tb.NodeUsed(1) != 50 {
		t.Fatal("refused recovery did not release its reservation")
	}

	// A fresh incarnation's empty slot is refused: a repair computed from
	// the superseded version must not land in the overwrite.
	tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	if ok := tb.CommitChunk("a", 0, 0, 50, 0, 111); ok {
		t.Fatal("recovery committed into a fresh incarnation")
	}
	if tb.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after refused recovery, want 0", tb.UsedBytes())
	}
}

// TestMovedChunkIgnoresOldNode: once a recovery re-insert has put a
// lost chunk on another node, a verdict from the node it was lost on —
// a late MISS, a read-back that fails its checksum — leaves the
// repaired slot present. Verdicts from the node the slot points at
// still land.
func TestMovedChunkIgnoresOldNode(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, epoch, 111)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 1, 1, 50, epoch, 222)

	tb.MarkChunkLost("a", 1, 1, epoch)
	tb.Reserve(3, 50, "a")
	if ok := tb.CommitChunk("a", 1, 3, 50, 0, 222); !ok {
		t.Fatal("repairing lost chunk 1 onto node 3 refused")
	}
	tb.Reserve(3, 50, "a")
	if ok := tb.CommitChunk("a", 1, 3, 50, 0, 222); !ok {
		t.Fatal("re-inserting chunk 1 where it is refused")
	}
	if left := tb.MarkChunkLost("a", 1, 1, epoch); left != 2 {
		t.Fatalf("a MISS from the old node left %d chunks present, want 2", left)
	}
	for i := 0; i < 2; i++ {
		if tb.NoteChunkCorrupt("a", 1, 1, epoch) {
			t.Fatal("a corrupt read-back from the old node lost the moved chunk")
		}
	}
	if meta, _ := tb.Lookup("a"); !meta.Chunks[1].Present || meta.Chunks[1].Node != 3 || tb.NodeUsed(3) != 50 {
		t.Fatalf("moved slot = %+v, node 3 holds %d bytes", meta.Chunks[1], tb.NodeUsed(3))
	}
	if left := tb.MarkChunkLost("a", 1, 3, epoch); left != 1 {
		t.Fatalf("a MISS from the slot's node left %d chunks present, want 1", left)
	}
}

// TestDropIfIncomplete pins the failed-PUT cleanup: an entry with fewer
// than d chunks committed and none lost is dropped (the key reads as a
// clean MISS for the RESET path), while a complete or superseded entry
// is left alone.
func TestDropIfIncomplete(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 100, 2, 3, 0, 0)
	tb.Reserve(0, 40, "a")
	tb.CommitChunk("a", 0, 0, 40, epoch, 0) // 1 of 2 data shards: incomplete
	if _, ok := tb.DropIfIncomplete("a", epoch); !ok {
		t.Fatal("incomplete entry not dropped")
	}
	if _, ok := tb.Lookup("a"); ok {
		t.Fatal("entry survived DropIfIncomplete")
	}

	// A complete entry must never be dropped by the failed-PUT path.
	_, epoch, _ = tb.BeginObject("b", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "b")
	tb.CommitChunk("b", 0, 0, 50, epoch, 0)
	if _, ok := tb.DropIfIncomplete("b", epoch); ok {
		t.Fatal("complete entry dropped")
	}

	// A superseded epoch must not drop the new incarnation.
	_, epoch2, _ := tb.BeginObject("b", 100, 1, 2, 0, 0)
	if _, ok := tb.DropIfIncomplete("b", epoch); ok {
		t.Fatal("stale epoch dropped the new incarnation")
	}
	_ = epoch2
}

func TestUsedBytesAggregates(t *testing.T) {
	tb := newTable()
	_, epoch, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 60, "a")
	tb.CommitChunk("a", 0, 0, 60, epoch, 0)
	tb.Reserve(3, 60, "a")
	tb.CommitChunk("a", 1, 3, 60, epoch, 0)
	if tb.UsedBytes() != 120 {
		t.Fatalf("UsedBytes = %d, want 120", tb.UsedBytes())
	}
}

// fakeNodes is a node pool's published state, set by hand.
type fakeNodes struct {
	up    map[int]bool
	loads map[int]int
}

func (f fakeNodes) awake(i int) bool { return f.up[i] }
func (f fakeNodes) load(i int) int   { return f.loads[i] }

// TestPlace is the placement rule, one row per case: a pool of 6 nodes
// of 1000 bytes, an RS(2+2) object "k" of 100-byte chunks (unless a row
// sets its total), and a SET of chunk idx hinted at a node.
func TestPlace(t *testing.T) {
	const size = 100
	rows := []struct {
		name      string
		up        []int         // awake nodes
		loads     map[int]int   // requests held per node
		used      map[int]int64 // bytes accounted per node, besides the object's own
		on        map[int]int   // committed chunks of the entry: index -> node
		lost      []int         // committed chunks then lost
		gen       []int         // nodes the writing generation already used
		stale     bool          // the writer's generation was superseded
		repair    bool          // a recovery SET: no generation
		total     int           // chunks of the object; 0 means 4
		idx, hint int
		want      int
	}{
		{name: "awake hint stands", up: []int{0, 1, 2}, hint: 2, want: 2},
		{name: "awake hint stands over a less loaded node", up: []int{0, 1}, loads: map[int]int{1: 5}, hint: 1, want: 1},
		{name: "sleeping hint moves to the least loaded awake node", up: []int{1, 2, 3},
			loads: map[int]int{1: 3, 2: 1, 3: 2}, hint: 5, want: 2},
		{name: "load ties go to the fewest accounted bytes", up: []int{1, 2, 3},
			used: map[int]int64{1: 200, 2: 150, 3: 100, 4: 600, 5: 600}, hint: 5, want: 3},
		{name: "a move skips nodes above the pool's average", up: []int{0, 1},
			loads: map[int]int{1: 1}, used: map[int]int64{0: 300, 1: 100, 4: 250, 5: 250}, hint: 4, want: 1},
		{name: "a sleeping node keeps its hint while the running ones hold more than their share", up: []int{0, 1},
			used: map[int]int64{0: 100, 1: 100}, hint: 4, want: 4},
		{name: "awake hint the generation already used moves", up: []int{0, 1, 2}, gen: []int{0, 1}, hint: 1, want: 2},
		{name: "no awake node has room: the hint stands", up: []int{0, 1},
			used: map[int]int64{0: 950, 1: 901, 2: 960, 3: 960, 4: 960, 5: 960}, hint: 4, want: 4},
		{name: "a node with exactly the room left takes it", up: []int{0, 1},
			used: map[int]int64{0: 950, 1: 900, 2: 960, 3: 960, 4: 960, 5: 960}, hint: 4, want: 1},
		{name: "all asleep: the hint stands", hint: 3, want: 3},
		{name: "all asleep, hint already used: the next node in index order", gen: []int{3, 4}, hint: 3, want: 5},
		{name: "an object on every node keeps a sleeping hint", up: []int{0, 1}, total: 6, hint: 5, want: 5},
		{name: "an object on every node still moves a hint already used", up: []int{0, 1},
			loads: map[int]int{0: 1}, total: 6, gen: []int{5}, hint: 5, want: 1},
		{name: "every node used: the hint stands", up: []int{0, 1}, gen: []int{0, 1, 2, 3, 4, 5}, hint: 2, want: 2},
		{name: "a superseded generation's move skips the newer entry's nodes, any index",
			up: []int{0, 1, 2}, on: map[int]int{0: 0, 1: 1}, stale: true, idx: 1, hint: 4, want: 2},
		{name: "a superseded generation's fallback skips them too",
			on: map[int]int{0: 0, 1: 1}, gen: []int{4, 5}, stale: true, idx: 0, hint: 4, want: 2},
		{name: "repair: awake hint stands", up: []int{4}, on: map[int]int{0: 0, 1: 1, 2: 2, 3: 3}, lost: []int{3},
			repair: true, idx: 3, hint: 4, want: 4},
		{name: "repair: hint on a sibling moves to an awake node off the entry",
			up: []int{0, 1, 2, 3, 5}, on: map[int]int{0: 0, 1: 1, 2: 2, 3: 3}, lost: []int{3},
			repair: true, idx: 3, hint: 0, want: 5},
		{name: "repair: a move never returns a chunk to the node that lost it",
			up: []int{0, 1, 2, 3}, on: map[int]int{0: 0, 1: 1, 2: 2, 3: 3}, lost: []int{3},
			repair: true, idx: 3, hint: 5, want: 5},
		{name: "repair: all asleep, hint on a sibling: the next node holding none, the lost one included",
			on: map[int]int{0: 0, 1: 1, 2: 2, 3: 3}, lost: []int{2},
			repair: true, idx: 2, hint: 1, want: 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tb := NewMappingTable(6, 1000, nil)
			for n, b := range row.used {
				tb.Reserve(n, b, "ballast")
			}
			if row.total == 0 {
				row.total = 4
			}
			_, epoch, _ := tb.BeginObject("k", 2*size, 2, row.total, 0, 0)
			for idx, n := range row.on {
				tb.Reserve(n, size, "k")
				tb.CommitChunk("k", idx, n, size, epoch, int64(idx))
			}
			for _, idx := range row.lost {
				tb.MarkChunkLost("k", idx, row.on[idx], epoch)
			}
			var gen NodeSet
			if !row.repair {
				gen = NewNodeSet(6)
				for _, n := range row.gen {
					gen.add(n)
				}
			}
			if row.stale {
				epoch--
			}
			nodes := fakeNodes{up: make(map[int]bool), loads: row.loads}
			for _, n := range row.up {
				nodes.up[n] = true
			}
			before := tb.NodeUsed(row.want)
			tb.nodes = nodes
			node, dels, evicted, err := tb.Place("k", row.idx, row.hint, size, epoch, gen)
			if err != nil || len(dels) != 0 || evicted != 0 {
				t.Fatalf("Place = %d, %v, %d evicted, %v", node, dels, evicted, err)
			}
			if node != row.want {
				t.Fatalf("placed on node %d, want %d", node, row.want)
			}
			if got := tb.NodeUsed(node); got != before+size {
				t.Errorf("node %d accounts %d bytes after the pick, want %d", node, got, before+size)
			}
			meta, _ := tb.Lookup("k")
			switch c := meta.Chunks[row.idx]; {
			case row.repair && c.Node != node:
				t.Errorf("lost slot records node %d, want the pick %d", c.Node, node)
			case !row.repair && !gen.has(node):
				t.Errorf("the generation's set does not record the pick %d", node)
			case !row.repair && !row.stale && (!c.Aimed || c.Node != node):
				t.Errorf("slot %d = %+v, want aimed at %d", row.idx, c, node)
			case row.stale && c.Aimed:
				t.Errorf("a superseded generation's pick was aimed in the newer entry: %+v", c)
			}
		})
	}

	t.Run("repair of an unknown object", func(t *testing.T) {
		tb := NewMappingTable(6, 1000, nil)
		tb.nodes = fakeNodes{}
		if _, _, _, err := tb.Place("gone", 0, 1, size, 0, nil); !errors.Is(err, errNoObject) {
			t.Fatalf("Place = %v, want errNoObject", err)
		}
		if tb.UsedBytes() != 0 {
			t.Fatal("a refused repair reserved bytes")
		}
	})
}

// TestNewerOn: a superseded chunk's copy is spared exactly when the
// key's newer incarnation placed the same chunk key on the same node,
// in flight or committed.
func TestNewerOn(t *testing.T) {
	tb := NewMappingTable(4, 1000, nil)
	tb.nodes = fakeNodes{up: map[int]bool{0: true, 1: true, 2: true, 3: true}}
	_, old, _ := tb.BeginObject("k", 200, 2, 3, 0, 0)
	tb.Place("k", 0, 2, 100, old, NewNodeSet(4))
	_, newer, _ := tb.BeginObject("k", 200, 2, 3, 0, 0)
	if tb.NewerOn("k", 0, 2, old) {
		t.Fatal("the newer incarnation has placed nothing yet")
	}
	tb.Place("k", 0, 2, 100, newer, NewNodeSet(4))
	for _, c := range []struct {
		idx, node int
		epoch     uint64
		want      bool
	}{
		{0, 2, old, true},    // the newer chunk 0 is on its way to node 2
		{0, 3, old, false},   // another node
		{1, 2, old, false},   // another chunk
		{0, 2, newer, false}, // the chunk's own incarnation
	} {
		if got := tb.NewerOn("k", c.idx, c.node, c.epoch); got != c.want {
			t.Errorf("NewerOn(chunk %d, node %d, epoch %d) = %v, want %v", c.idx, c.node, c.epoch, got, c.want)
		}
	}
	tb.CommitChunk("k", 0, 2, 100, newer, 0)
	if !tb.NewerOn("k", 0, 2, old) {
		t.Error("the newer chunk 0 committed on node 2, yet the old copy's DEL would go out")
	}
}
