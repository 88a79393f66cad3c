package proxy

import (
	"errors"
	"fmt"
	"testing"
)

func newTable() *mappingTable {
	// 4 nodes x 1 MB.
	return newMappingTable(4, 1<<20)
}

func TestChunkKey(t *testing.T) {
	if got := ChunkKey("obj", 3); got != "obj#3" {
		t.Fatalf("ChunkKey = %q", got)
	}
}

func TestBeginCommitLookup(t *testing.T) {
	tb := newTable()
	dels, epoch, _, _ := tb.BeginObject("a", 1000, 2, 3, 0, 0)
	if len(dels) != 0 {
		t.Fatal("fresh BeginObject returned deletions")
	}
	if _, _, err := tb.Reserve(0, 500, "a"); err != nil {
		t.Fatal(err)
	}
	tb.CommitChunk("a", 0, 0, 500, epoch, 0, false)
	if _, _, err := tb.Reserve(1, 500, "a"); err != nil {
		t.Fatal(err)
	}
	tb.CommitChunk("a", 1, 1, 500, epoch, 0, false)

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
	_, epoch, _, _ := tb.BeginObject("a", 10, 1, 1, 0, 0)
	tb.Reserve(0, 10, "a")
	tb.CommitChunk("a", 0, 0, 10, epoch, 0, false)
	meta, _ := tb.Lookup("a")
	meta.Chunks[0].Present = false
	again, _ := tb.Lookup("a")
	if !again.Chunks[0].Present {
		t.Fatal("Lookup leaked internal state")
	}
}

func TestOverwriteReturnsDeletions(t *testing.T) {
	tb := newTable()
	_, epoch, _, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, epoch, 0, false)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 1, 1, 50, epoch, 0, false)

	dels, _, _, _ := tb.BeginObject("a", 200, 1, 2, 0, 0)
	if len(dels) != 2 {
		t.Fatalf("overwrite returned %d deletions, want 2", len(dels))
	}
	if tb.NodeUsed(0) != 0 || tb.NodeUsed(1) != 0 {
		t.Fatal("old accounting not released")
	}
}

func TestDrop(t *testing.T) {
	tb := newTable()
	_, epoch, _, _ := tb.BeginObject("a", 100, 1, 1, 0, 0)
	tb.Reserve(2, 100, "a")
	tb.CommitChunk("a", 0, 2, 100, epoch, 0, false)
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
		_, epoch, _, _ := tb.BeginObject(key, 1<<20, 1, 1, 0, 0)
		if _, _, err := tb.Reserve(i, 1<<20, key); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
		tb.CommitChunk(key, 0, i, 1<<20, epoch, 0, false)
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
	tb := newMappingTable(1, 1000)
	_, epoch, _, _ := tb.BeginObject("self", 900, 1, 2, 0, 0)
	if _, _, err := tb.Reserve(0, 600, "self"); err != nil {
		t.Fatal(err)
	}
	tb.CommitChunk("self", 0, 0, 600, epoch, 0, false)
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
	tb.CommitChunk("ghost", 0, 1, 100, 1, 0, false) // object never began: must release
	if tb.NodeUsed(1) != 0 {
		t.Fatal("orphan commit leaked accounting")
	}
}

func TestMarkChunkLost(t *testing.T) {
	tb := newTable()
	_, epoch, _, _ := tb.BeginObject("a", 100, 2, 3, 0, 0)
	for i := 0; i < 3; i++ {
		tb.Reserve(i, 40, "a")
		tb.CommitChunk("a", i, i, 40, epoch, 0, false)
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
	tb.CommitChunk("m", 0, 0, 40, first, 0, false)

	dels, second, ok := tb.BeginObjectIfAbsent("m", 100, 2, 3, 0, 0)
	if !ok || second == first {
		t.Fatalf("ingest over a 1-of-2 ingest: ok=%v epoch %d (first %d), want a fresh incarnation", ok, second, first)
	}
	if len(dels) != 1 || dels[0].Node != 0 || tb.NodeUsed(0) != 0 {
		t.Fatalf("replaced ingest's chunk: dels=%v, node 0 holds %d bytes; want it deleted and released", dels, tb.NodeUsed(0))
	}
	if _, ok := tb.CommitChunk("m", 1, 1, 40, first, 0, false); ok {
		t.Fatal("the replaced generation's late chunk committed")
	}
	for i := 0; i < 2; i++ {
		tb.Reserve(i, 40, "m")
		tb.CommitChunk("m", i, i, 40, second, 0, false)
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
	_, oldEpoch, _, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, oldEpoch, 0, false)

	// Overwrite: a fresh incarnation replaces the entry.
	_, newEpoch, _, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 0, 1, 50, newEpoch, 0, false)

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
	if _, ok := tb.CommitChunk("a", 1, 2, 50, oldEpoch, 0, false); ok {
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
	_, epoch, _, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, epoch, 111, true)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 1, 1, 50, epoch, 222, true)
	tb.MarkChunkLost("a", 0, 0, epoch)

	// Recovery into a lost slot with the matching sum commits.
	tb.Reserve(2, 50, "a")
	if _, ok := tb.CommitChunk("a", 0, 2, 50, 0, 111, true); !ok {
		t.Fatal("recovery of a lost chunk with its own content refused")
	}
	if meta, _ := tb.Lookup("a"); !meta.Chunks[0].Present || meta.Chunks[0].Node != 2 {
		t.Fatalf("repaired slot = %+v", meta.Chunks[0])
	}
	// A straggler (slot present, same sum) still moves.
	tb.Reserve(3, 50, "a")
	if _, ok := tb.CommitChunk("a", 1, 3, 50, 0, 222, true); !ok {
		t.Fatal("straggler re-insert with the slot's own content refused")
	}
	if tb.NodeUsed(1) != 0 || tb.NodeUsed(3) != 50 {
		t.Fatalf("moved chunk accounting: node1 %d, node3 %d", tb.NodeUsed(1), tb.NodeUsed(3))
	}
	// A different sum is refused and releases its reservation.
	tb.Reserve(1, 50, "a")
	if _, ok := tb.CommitChunk("a", 0, 1, 50, 0, 999, true); ok {
		t.Fatal("recovery carrying other content committed")
	}
	// So is a frame that carries no sum at all.
	tb.Reserve(1, 50, "a")
	if _, ok := tb.CommitChunk("a", 0, 1, 50, 0, 0, false); ok {
		t.Fatal("sum-less recovery committed")
	}
	if tb.NodeUsed(1) != 0 {
		t.Fatal("refused recovery did not release its reservation")
	}

	// A fresh incarnation's empty slot is refused: a repair computed from
	// the superseded version must not land in the overwrite.
	tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	if _, ok := tb.CommitChunk("a", 0, 0, 50, 0, 111, true); ok {
		t.Fatal("recovery committed into a fresh incarnation")
	}
	if tb.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after refused recovery, want 0", tb.UsedBytes())
	}
}

// TestMovedChunkIgnoresOldNode: a recovery re-insert that moves a
// present chunk reports the node it moved off, and a verdict from that
// node — a straggler fetch meeting the DEL of the old copy reads MISS,
// a read-back of it fails its checksum — leaves the moved slot present.
// Verdicts from the node the slot points at still land.
func TestMovedChunkIgnoresOldNode(t *testing.T) {
	tb := newTable()
	_, epoch, _, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "a")
	tb.CommitChunk("a", 0, 0, 50, epoch, 111, true)
	tb.Reserve(1, 50, "a")
	tb.CommitChunk("a", 1, 1, 50, epoch, 222, true)

	tb.Reserve(3, 50, "a")
	if moved, ok := tb.CommitChunk("a", 1, 3, 50, 0, 222, true); !ok || moved != 1 {
		t.Fatalf("moving chunk 1 to node 3: moved %d, ok %v; want node 1, true", moved, ok)
	}
	tb.Reserve(3, 50, "a")
	if moved, ok := tb.CommitChunk("a", 1, 3, 50, 0, 222, true); !ok || moved != -1 {
		t.Fatalf("re-inserting chunk 1 where it is: moved %d, ok %v; want -1, true", moved, ok)
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
	_, epoch, _, _ := tb.BeginObject("a", 100, 2, 3, 0, 0)
	tb.Reserve(0, 40, "a")
	tb.CommitChunk("a", 0, 0, 40, epoch, 0, false) // 1 of 2 data shards: incomplete
	if _, ok := tb.DropIfIncomplete("a", epoch); !ok {
		t.Fatal("incomplete entry not dropped")
	}
	if _, ok := tb.Lookup("a"); ok {
		t.Fatal("entry survived DropIfIncomplete")
	}

	// A complete entry must never be dropped by the failed-PUT path.
	_, epoch, _, _ = tb.BeginObject("b", 100, 1, 2, 0, 0)
	tb.Reserve(0, 50, "b")
	tb.CommitChunk("b", 0, 0, 50, epoch, 0, false)
	if _, ok := tb.DropIfIncomplete("b", epoch); ok {
		t.Fatal("complete entry dropped")
	}

	// A superseded epoch must not drop the new incarnation.
	_, epoch2, _, _ := tb.BeginObject("b", 100, 1, 2, 0, 0)
	if _, ok := tb.DropIfIncomplete("b", epoch); ok {
		t.Fatal("stale epoch dropped the new incarnation")
	}
	_ = epoch2
}

func TestUsedBytesAggregates(t *testing.T) {
	tb := newTable()
	_, epoch, _, _ := tb.BeginObject("a", 100, 1, 2, 0, 0)
	tb.Reserve(0, 60, "a")
	tb.CommitChunk("a", 0, 0, 60, epoch, 0, false)
	tb.Reserve(3, 60, "a")
	tb.CommitChunk("a", 1, 3, 60, epoch, 0, false)
	if tb.UsedBytes() != 120 {
		t.Fatalf("UsedBytes = %d, want 120", tb.UsedBytes())
	}
}
