package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/ec"
	"infinicache/internal/lambdanode"
	"infinicache/internal/protocol"
)

// The tests in this file pin the session's write op (writeOp): one PUT
// generation is one object from its first SET frame to settleWrite,
// every chunk of it commits under the epoch its own BeginObject created
// however late the frame arrives, and it settles exactly once.
//
// TestWriteOpConformance drives raw SET frames through a real session —
// real proxy, mapping table, hot tier and node dispatchers over a WarmPool
// — whose event loop the test goroutine plays by hand: the order in
// which client frames and node completions reach the state machine is
// the script's, not the scheduler's, so races a live loop meets once in
// a thousand PUTs (a generation draining mid-burst, an ack queued behind
// a CANCEL) are reproduced on every run. A second, ordinary client
// session on the same proxy plays "another writer".

const (
	woTotal = 3 // RS(2+1), as hotClient speaks
	woData  = 2
	woSize  = 1024 // object bytes; 512 per shard
)

// woValue is a woSize-byte object of one repeated byte, so a GET that
// mixed two versions' shards is visible at a glance.
func woValue(b byte) []byte { return bytes.Repeat([]byte{b}, woSize) }

// woShards RS-encodes v exactly as the client would.
func woShards(t *testing.T, v []byte) [][]byte {
	t.Helper()
	codec, err := ec.New(woData, woTotal-woData)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := codec.Split(v)
	if err == nil {
		err = codec.Encode(shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// setFrame is one raw chunk SET.
type setFrame struct {
	key       string
	idx       int
	node      int
	gen       int64
	total     int // frames in the generation; 0 = woTotal
	payload   []byte
	recovery  bool
	migration bool
	badSum    bool
}

// writeHarness is one hand-driven session plus the stack around it.
type writeHarness struct {
	t    *testing.T
	p    *Proxy
	c    *client.Client // another session on the same proxy
	pool *lambdanode.WarmPool

	s       *session
	far     *protocol.Conn           // the writer's end of s.conn
	replies <-chan *protocol.Message // frames the session flushed to it
	got     map[uint64]string        // client seq → reply kind
	seq     uint64
	hungUp  bool
}

// newWriteHarness builds the stack. cold caps tier admission at one byte,
// so every GET reads the node path (a tier hit would mask a chunk
// spliced into the mapping table).
func newWriteHarness(t *testing.T, cold bool) *writeHarness {
	t.Helper()
	maxObj := int64(1 << 20)
	if cold {
		maxObj = 1
	}
	pool := &lambdanode.WarmPool{}
	p, c := warmStack(t, pool, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: maxObj}, hotClient)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	far, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	near, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	h := &writeHarness{
		t: t, p: p, c: c, pool: pool,
		s:   newSession(p, protocol.NewConn(near)),
		far: protocol.NewConn(far),
		got: make(map[uint64]string),
	}
	h.replies = protocol.Pump(h.far)
	t.Cleanup(h.hangUp)
	return h
}

// step plays one wake of the event loop on the next client frame.
func (h *writeHarness) step() {
	h.t.Helper()
	m, err := h.s.conn.Recv()
	if err != nil {
		h.t.Fatalf("session recv: %v", err)
	}
	h.s.conn.Pin()
	h.s.handle(m)
	h.s.settleFlush()
}

// set sends one SET frame through the session and returns its seq.
func (h *writeHarness) set(f setFrame) uint64 {
	h.t.Helper()
	h.seq++
	sum := protocol.ChunkSum(f.key, f.idx, f.payload)
	if f.badSum {
		sum++
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	if f.total == 0 {
		f.total = woTotal
	}
	args := []int64{int64(f.idx), int64(f.total), int64(f.node), woSize, woData, f.gen, flag(f.recovery), flag(f.migration), sum}
	if err := h.far.Forward(protocol.TSet, h.seq, f.key, "", args, f.payload); err != nil {
		h.t.Fatal(err)
	}
	h.step()
	return h.seq
}

// burst sends chunks idx... of one generation, shard i to nodes[i].
func (h *writeHarness) burst(key string, gen int64, shards [][]byte, nodes []int, idx ...int) []uint64 {
	h.t.Helper()
	var seqs []uint64
	for _, i := range idx {
		seqs = append(seqs, h.set(setFrame{key: key, idx: i, node: nodes[i], gen: gen, payload: shards[i]}))
	}
	return seqs
}

// cancel sends the CANCEL a client sends for an abandoned seq.
func (h *writeHarness) cancel(seq uint64) {
	h.t.Helper()
	if err := h.far.Forward(protocol.TCancel, seq, "", "", nil, nil); err != nil {
		h.t.Fatal(err)
	}
	h.step()
}

// take removes the next node completion from the session's channel
// without processing it.
func (h *writeHarness) take() nodeReply {
	h.t.Helper()
	return awaitReply(h.t, h.s.completions)
}

// deliver plays one wake of the event loop on a node completion.
func (h *writeHarness) deliver(r nodeReply) {
	h.s.conn.Pin()
	h.s.complete(r)
	h.s.settleFlush()
}

// complete processes the next n node completions in arrival order.
func (h *writeHarness) complete(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		h.deliver(h.take())
	}
}

func replyKind(m *protocol.Message) string {
	switch {
	case m.Type == protocol.TAck:
		return "ACK"
	case m.Type == protocol.TErr && m.Arg(0) == protocol.TransientFlag:
		return "TRANSIENT"
	case m.Type == protocol.TErr:
		return string(m.Payload)
	}
	return m.Type.String()
}

// await blocks until the session has flushed a reply for seq — which it
// must do unprompted whenever that reply is what the writer waits on.
func (h *writeHarness) await(seq uint64) string {
	h.t.Helper()
	for h.got[seq] == "" {
		select {
		case m, ok := <-h.replies:
			if !ok {
				h.t.Fatalf("connection closed waiting for the reply to seq %d", seq)
			}
			h.got[m.Seq] = replyKind(m)
			m.Free()
		case <-time.After(10 * time.Second):
			h.t.Fatalf("no reply to seq %d reached the writer: the session is sitting on a frame its client is blocked on", seq)
		}
	}
	return h.got[seq]
}

// barrier forces out whatever the session still has staged: a GET of an
// unknown key is answered MISS, which always flushes, and the connection
// is FIFO, so every earlier reply has been collected when it returns.
func (h *writeHarness) barrier() {
	h.t.Helper()
	h.seq++
	if err := h.far.Forward(protocol.TGet, h.seq, "wo/absent", "", nil, nil); err != nil {
		h.t.Fatal(err)
	}
	h.step()
	h.await(h.seq)
}

// hangUp closes the writer's end and runs the session's own loop to its
// exit: the window drains and teardown settles what is still open.
func (h *writeHarness) hangUp() {
	if h.hungUp {
		return
	}
	h.hungUp = true
	h.far.Close()
	h.s.run()
}

// nodeHas asks node n directly whether it stores chunkKey. Queued DELs
// ride ahead of the probe on the node's connection.
func (h *writeHarness) nodeHas(n int, chunkKey string) bool {
	h.t.Helper()
	ch := make(chan nodeReply, 1)
	if !h.p.nodes[n].submit(protocol.TGet, h.p.nextSeq(), chunkKey, nil, ch) {
		h.t.Fatal("proxy shut down")
	}
	r := awaitReply(h.t, ch)
	if r.Msg == nil {
		h.t.Fatalf("probe of node %d for %s failed", n, chunkKey)
	}
	defer r.Msg.Free()
	return r.Msg.Type == protocol.TData
}

// lose makes chunk idx of key a positive loss, as a reclaimed node would.
func (h *writeHarness) lose(key string, idx int) {
	h.t.Helper()
	meta := h.lookup(key)
	h.p.table.MarkChunkLost(key, idx, meta.Chunks[idx].Node, meta.Epoch)
	h.p.nodes[meta.Chunks[idx].Node].queueDel(ChunkKey(key, idx))
}

func (h *writeHarness) lookup(key string) objMeta {
	h.t.Helper()
	meta, ok := h.p.table.Lookup(key)
	if !ok {
		h.t.Fatalf("%s is not mapped", key)
	}
	return meta
}

// placement returns the nodes key's chunks live on and one node that
// holds none of them.
func (h *writeHarness) placement(key string) (nodes []int, free int) {
	h.t.Helper()
	used := make(map[int]bool)
	for _, c := range h.lookup(key).Chunks {
		nodes = append(nodes, c.Node)
		used[c.Node] = true
	}
	for used[free] {
		free++
	}
	return nodes, free
}

func (h *writeHarness) put(key string, v []byte) {
	h.t.Helper()
	if err := h.c.PutCtx(context.Background(), key, v); err != nil {
		h.t.Fatal(err)
	}
}

// readsBack requires 20 of 20 GETs to return exactly v.
func (h *writeHarness) readsBack(key string, v []byte) {
	h.t.Helper()
	for i := 0; i < 20; i++ {
		got, err := h.c.GetCtx(context.Background(), key)
		if err != nil {
			h.t.Fatalf("GET %d: %v", i, err)
		}
		if !bytes.Equal(got, v) {
			h.t.Fatalf("GET %d returned %d…%d (first and last byte), want %d throughout: shards of two versions were mixed",
				i, got[0], got[len(got)-1], v[0])
		}
	}
}

// check asserts the state a script must leave behind: how many chunks of
// key the table holds (-1: no entry), tier residency, the session's open
// generations — and, for every script alike, that each node stores
// exactly the chunks the table maps to it (so a DEL went out for every
// stored-but-uncommitted chunk) and that the pool accounting equals the
// committed chunk sizes.
func (h *writeHarness) check(when, key string, present int, resident bool, open int) {
	h.t.Helper()
	meta, mapped := h.p.table.Lookup(key)
	got := -1
	if mapped {
		got = meta.presentChunks()
	}
	if got != present {
		h.t.Errorf("%s: %d chunks present (-1 = no entry), want %d", when, got, present)
	}
	if r := h.p.table.hotResident(key); r != resident {
		h.t.Errorf("%s: tier-resident = %v, want %v", when, r, resident)
	}
	if n := len(h.s.writes); n != open {
		h.t.Errorf("%s: %d generations open in the session, want %d", when, n, open)
	}
	for n := range h.p.nodes {
		for idx := 0; idx < woTotal; idx++ {
			committed := mapped && idx < len(meta.Chunks) && meta.Chunks[idx].Present && meta.Chunks[idx].Node == n
			if stored := h.nodeHas(n, ChunkKey(key, idx)); stored != committed {
				h.t.Errorf("%s: node %d stores %s = %v, table maps it there = %v", when, n, ChunkKey(key, idx), stored, committed)
			}
		}
	}
	if used, sum := h.p.table.UsedBytes(), committedBytes(h.p); used != sum {
		h.t.Errorf("%s: UsedBytes = %d, committed chunks sum to %d", when, used, sum)
	}
}

// committedBytes sums the chunk sizes p's mapping table holds — what its
// pool accounting must equal once no write is in flight.
func committedBytes(p *Proxy) int64 {
	var sum int64
	for _, k := range p.table.Keys() {
		if m, ok := p.table.Lookup(k); ok {
			for _, c := range m.Chunks {
				sum += c.Size
			}
		}
	}
	return sum
}

const (
	woSuperseded = "proxy: chunk superseded by a newer put"
	woStoreFull  = "proxy: chunk exceeds pool capacity: pool full"
)

// TestWriteOpConformance is the write-op twin of the client's
// TestDriverConformance: one row per script, the same assertions for
// every row. Rows marked D1–D5 are the defects the single writeOp closed
// (each fails on the commit before it); add a case as a row, not as a
// new test function.
func TestWriteOpConformance(t *testing.T) {
	const key = "wo/k"
	spread := []int{0, 1, 2} // chunk i on node i
	rows := []struct {
		name string
		cold bool // no tier admission: GETs read the nodes
		warm bool // one prior PUT: the key is ghost-known
		// script returns the seqs whose replies want lists ("" = none).
		script   func(h *writeHarness) []uint64
		want     []string
		present  int // chunks of key present afterwards; -1 = entry dropped
		resident bool
		open     int // generations still open when the script ends
		// dropped: the writer's hang-up drops the entry (present = -1).
		dropped bool
		verify  func(h *writeHarness)
	}{
		{
			name: "pipelined generation", warm: true,
			script: func(h *writeHarness) []uint64 {
				seqs := h.burst(key, 7, woShards(h.t, woValue(7)), spread, 0, 1, 2)
				h.complete(3)
				return seqs
			},
			want: []string{"ACK", "ACK", "ACK"}, present: 3, resident: true,
		},
		{
			// D2: each ack drains the generation's in-flight count to zero.
			// That is a flush point (await would time out otherwise) and
			// nothing more: the write-through capture survives to the
			// last chunk.
			name: "D2 one ack at a time", warm: true,
			script: func(h *writeHarness) []uint64 {
				var seqs []uint64
				for i := 0; i < woTotal; i++ {
					seqs = append(seqs, h.burst(key, 7, woShards(h.t, woValue(7)), spread, i)...)
					h.complete(1)
					h.await(seqs[i])
				}
				return seqs
			},
			want: []string{"ACK", "ACK", "ACK"}, present: 3, resident: true,
		},
		{
			name: "node withholds a chunk and the client cancels", warm: true,
			script: func(h *writeHarness) []uint64 {
				shards := woShards(h.t, woValue(7))
				seqs := h.burst(key, 7, shards, spread, 0, 1)
				h.complete(2)
				h.pool.HoldSets.Store(true)
				before := h.pool.Sets.Load()
				seqs = append(seqs, h.burst(key, 7, shards, spread, 2)...)
				for deadline := time.Now().Add(10 * time.Second); h.pool.Sets.Load() == before; {
					if time.Now().After(deadline) {
						h.t.Fatal("the withheld SET never reached its node")
					}
					time.Sleep(time.Millisecond)
				}
				h.cancel(seqs[2])
				h.pool.HoldSets.Store(false)
				h.complete(1) // the withdrawn request's nil outcome
				return seqs
			},
			want: []string{"ACK", "ACK", ""}, present: 2,
		},
		{
			// Chunk 0 commits, then the pool has no room for the rest:
			// fewer than d chunks can ever land, so the settled generation
			// drops its entry and chunk 0's copy is deleted.
			name: "reserve fails on chunks 1 and 2",
			script: func(h *writeHarness) []uint64 {
				shards := woShards(h.t, woValue(7))
				seqs := h.burst(key, 7, shards, spread, 0)
				h.complete(1)
				ballast := int64(len(h.p.nodes))*h.p.table.nodeCap - h.p.table.UsedBytes()
				if _, _, err := h.p.table.Reserve(3, ballast, "wo/ballast"); err != nil {
					h.t.Fatal(err)
				}
				seqs = append(seqs, h.burst(key, 7, shards, spread, 1, 2)...)
				h.p.table.ReleaseChunk(3, ballast)
				return seqs
			},
			want: []string{"ACK", woStoreFull, woStoreFull}, present: -1,
		},
		{
			name: "chunk 1 fails its checksum", warm: true,
			script: func(h *writeHarness) []uint64 {
				shards := woShards(h.t, woValue(7))
				seqs := h.burst(key, 7, shards, spread, 0)
				seqs = append(seqs, h.set(setFrame{key: key, idx: 1, node: 1, gen: 7, payload: shards[1], badSum: true}))
				seqs = append(seqs, h.burst(key, 7, shards, spread, 2)...)
				h.complete(2)
				return seqs
			},
			want: []string{"ACK", "TRANSIENT", "ACK"}, present: 2,
		},
		{
			// Two chunks of generation 7 are at their nodes when generation
			// 8 of the key opens on the same session: 7 is retired, its
			// late acks answer "superseded" and their copies are deleted,
			// and none of it fails generation 8.
			name: "newer generation on the same session mid-flight",
			script: func(h *writeHarness) []uint64 {
				seqs := h.burst(key, 7, woShards(h.t, woValue(7)), spread, 0, 1)
				seqs = append(seqs, h.burst(key, 8, woShards(h.t, woValue(8)), []int{2, 3, 0}, 0, 1, 2)...)
				h.complete(5)
				return seqs
			},
			want: []string{woSuperseded, woSuperseded, "ACK", "ACK", "ACK"}, present: 3, resident: true,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(8)) },
		},
		{
			// The session window is full when the generation's last frame
			// arrives, and the completion handleSet drains to make room is
			// the generation's own chunk 0: nothing of it is in flight and
			// its last frame is in hand, but not yet sent on. It must not
			// settle under that frame.
			name: "window full at the last frame",
			script: func(h *writeHarness) []uint64 {
				shards := woShards(h.t, woValue(7))
				seqs := []uint64{h.set(setFrame{key: key, idx: 0, node: 0, gen: 7, total: 2, payload: shards[0]})}
				for deadline := time.Now().Add(10 * time.Second); len(h.s.completions) == 0; {
					if time.Now().After(deadline) {
						h.t.Fatal("chunk 0 never completed")
					}
					time.Sleep(time.Millisecond)
				}
				for i := 0; i < sessionWindow-1; i++ {
					h.set(setFrame{key: "wo/filler", idx: i, node: i % len(h.p.nodes), gen: 8, total: sessionWindow - 1, payload: []byte("filler")})
				}
				seqs = append(seqs, h.set(setFrame{key: key, idx: 1, node: 1, gen: 7, total: 2, payload: shards[1]}))
				h.complete(sessionWindow)
				return seqs
			},
			want: []string{"ACK", "ACK"}, present: 2,
		},
		{
			// D1: generation 7 drains after chunk 0, another session
			// overwrites the key, then 7's tail arrives. The tail still
			// belongs to generation 7 and commits under 7's epoch — that
			// is, not at all.
			name: "D1 cross-session overwrite in the gap", cold: true,
			script: func(h *writeHarness) []uint64 {
				shards := woShards(h.t, woValue(7))
				seqs := h.burst(key, 7, shards, spread, 0)
				h.complete(1)
				h.await(seqs[0])
				h.put(key, woValue(9))
				_, free := h.placement(key)
				seqs = append(seqs, h.burst(key, 7, shards, []int{0, free, free}, 1, 2)...)
				h.complete(2)
				return seqs
			},
			want: []string{"ACK", woSuperseded, woSuperseded}, present: 3,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(9)) },
		},
		{
			// D1 for a migration stream: the destination's client PUT
			// lands between the stream's chunk 0 and its tail. The source
			// must hear migSupersededErr, the one answer on which it
			// drops its stale copy.
			name: "D1 client put in the gap of a migration stream", cold: true,
			script: func(h *writeHarness) []uint64 {
				shards := woShards(h.t, woValue(7))
				seqs := []uint64{h.set(setFrame{key: key, idx: 0, node: 0, gen: 7, payload: shards[0], migration: true})}
				h.complete(1)
				h.await(seqs[0])
				h.put(key, woValue(9))
				_, free := h.placement(key)
				for i := 1; i < woTotal; i++ {
					seqs = append(seqs, h.set(setFrame{key: key, idx: i, node: free, gen: 7, payload: shards[i], migration: true}))
				}
				h.complete(2)
				return seqs
			},
			want: []string{"ACK", migSupersededErr, migSupersededErr}, present: 3, open: 1,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(9)) },
		},
		{
			// D3: the writer dies after 1 of 3 chunks. Teardown settles the
			// open generation as failed and the key reads as a clean miss.
			name: "D3 writer disconnects after 1 of 3",
			script: func(h *writeHarness) []uint64 {
				seqs := h.burst(key, 7, woShards(h.t, woValue(7)), spread, 0)
				h.complete(1)
				return seqs
			},
			want: []string{"ACK"}, present: 1, open: 1, dropped: true,
			verify: func(h *writeHarness) {
				h.hangUp()
				if _, err := h.c.GetCtx(context.Background(), key); !errors.Is(err, client.ErrMiss) {
					h.t.Errorf("GET after the writer died = %v, want ErrMiss", err)
				}
				if n := h.p.table.Len(); n != 0 {
					h.t.Errorf("table holds %d entries, want 0", n)
				}
			},
		},
		{
			// A buggy writer names one node for two chunks. The writer's
			// node is a hint, so the second goes to a node the generation
			// has not used, instead of being refused as a co-located
			// chunk.
			name: "a burst whose hints name one node twice", cold: true,
			script: func(h *writeHarness) []uint64 {
				seqs := h.burst(key, 7, woShards(h.t, woValue(7)), []int{0, 0, 2}, 0, 1, 2)
				h.complete(3)
				return seqs
			},
			want: []string{"ACK", "ACK", "ACK"}, present: 3,
			verify: func(h *writeHarness) {
				used := make(map[int]bool)
				for i, c := range h.lookup(key).Chunks {
					if used[c.Node] {
						h.t.Errorf("chunk %d shares node %d with another chunk", i, c.Node)
					}
					used[c.Node] = true
				}
				h.readsBack(key, woValue(7))
			},
		},
		{
			// Chunk 0 is aimed at the one sleeping node. Every node is
			// filled to within three quarters of a chunk of its capacity,
			// so the awake ones hold no more bytes than the hint's node
			// but have no room for the chunk, while the pool has room for
			// the whole burst: the hint stands and nothing is evicted.
			name: "awake candidates with no room", cold: true,
			script: func(h *writeHarness) []uint64 {
				for n := 0; n < 3; n++ {
					h.nodeHas(n, "wo/wake") // the round trip leaves node n awake
				}
				shards := woShards(h.t, woValue(7))
				ballast := make([]int64, len(h.p.nodes))
				for n := range ballast {
					ballast[n] = h.p.table.nodeCap - h.p.table.NodeUsed(n) - int64(3*len(shards[0])/4)
					if _, _, err := h.p.table.Reserve(n, ballast[n], "wo/ballast"); err != nil {
						h.t.Fatal(err)
					}
				}
				seqs := h.burst(key, 7, shards, []int{3, 0, 1}, 0, 1, 2)
				h.complete(3)
				for n, b := range ballast {
					h.p.table.ReleaseChunk(n, b)
				}
				if n := h.lookup(key).Chunks[0].Node; n != 3 {
					h.t.Errorf("chunk 0 placed on node %d, which had no room; want its hint, node 3", n)
				}
				if n := h.p.Stats().Evictions.Load(); n != 0 {
					h.t.Errorf("%d objects evicted, want 0", n)
				}
				return seqs
			},
			want: []string{"ACK", "ACK", "ACK"}, present: 3,
		},
		{
			name: "recovery for an unknown object",
			script: func(h *writeHarness) []uint64 {
				return []uint64{h.set(setFrame{key: key, idx: 0, node: 0, gen: 7, payload: woShards(h.t, woValue(7))[0], recovery: true})}
			},
			want: []string{"proxy: recovery for unknown object"}, present: -1,
		},
		{
			// The repair's ack is already queued when its CANCEL is
			// handled: the chunk is the object's true content, so it
			// commits (and its node copy is never deleted).
			name: "recovery cancelled but acked", cold: true,
			script: func(h *writeHarness) []uint64 {
				h.put(key, woValue(5))
				nodes, _ := h.placement(key)
				h.lose(key, 2)
				seq := h.set(setFrame{key: key, idx: 2, node: nodes[2], gen: 7, payload: woShards(h.t, woValue(5))[2], recovery: true})
				ack := h.take()
				h.cancel(seq)
				h.deliver(ack)
				return []uint64{seq}
			},
			want: []string{"ACK"}, present: 3,
			verify: func(h *writeHarness) {
				if n := h.p.Stats().Repairs.Load(); n != 1 {
					h.t.Errorf("Repairs = %d, want 1", n)
				}
				h.readsBack(key, woValue(5))
			},
		},
		{
			// A repair of a chunk that was only slow is refused: only a
			// lost slot takes a re-insert, so the chunk stays on its node
			// and the repair's copy is deleted (check asserts that exactly
			// one node stores it, for every row).
			name: "recovery moves a straggler", cold: true,
			script: func(h *writeHarness) []uint64 {
				h.put(key, woValue(5))
				nodes, free := h.placement(key)
				seq := h.set(setFrame{key: key, idx: 0, node: free, gen: 7, payload: woShards(h.t, woValue(5))[0], recovery: true})
				h.complete(1)
				if n := h.lookup(key).Chunks[0].Node; n != nodes[0] {
					h.t.Errorf("chunk 0 maps to node %d after the refused repair, want %d", n, nodes[0])
				}
				return []uint64{seq}
			},
			want: []string{woSuperseded}, present: 3,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(5)) },
		},
		{
			// A repair aimed at the node of another chunk of the object
			// goes elsewhere: no node may hold two chunks of one object,
			// or one reclaim takes both.
			name: "recovery aimed at the node of a sibling chunk", cold: true,
			script: func(h *writeHarness) []uint64 {
				h.put(key, woValue(5))
				nodes, _ := h.placement(key)
				h.lose(key, 2)
				seq := h.set(setFrame{key: key, idx: 2, node: nodes[0], gen: 7, payload: woShards(h.t, woValue(5))[2], recovery: true})
				h.complete(1)
				meta := h.lookup(key)
				if n := meta.Chunks[2].Node; n == meta.Chunks[0].Node || n == meta.Chunks[1].Node {
					h.t.Errorf("repaired chunk 2 landed on node %d, which holds a sibling (chunks on %d, %d)",
						n, meta.Chunks[0].Node, meta.Chunks[1].Node)
				}
				return []uint64{seq}
			},
			want: []string{"ACK"}, present: 3,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(5)) },
		},
		{
			// Both lost chunks of one repair are aimed at the node of the
			// surviving chunk: each is moved off it, and not both onto
			// the same next node, or the second commit would be refused.
			name: "recovery of two lost chunks aimed at one node", cold: true,
			script: func(h *writeHarness) []uint64 {
				h.put(key, woValue(5))
				nodes, _ := h.placement(key)
				h.lose(key, 1)
				h.lose(key, 2)
				shards := woShards(h.t, woValue(5))
				seqs := []uint64{
					h.set(setFrame{key: key, idx: 1, node: nodes[0], gen: 7, payload: shards[1], recovery: true}),
					h.set(setFrame{key: key, idx: 2, node: nodes[0], gen: 7, payload: shards[2], recovery: true}),
				}
				h.complete(2)
				used := make(map[int]bool)
				for i, c := range h.lookup(key).Chunks {
					if used[c.Node] {
						h.t.Errorf("chunk %d shares node %d with another chunk", i, c.Node)
					}
					used[c.Node] = true
				}
				return seqs
			},
			want: []string{"ACK", "ACK"}, present: 3,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(5)) },
		},
		{
			// Two readers repair the same lost chunk onto the same node:
			// the second re-insert finds the chunk already there and is
			// acked, and the node keeps its copy.
			name: "duplicate recovery of one lost chunk", cold: true,
			script: func(h *writeHarness) []uint64 {
				h.put(key, woValue(5))
				_, free := h.placement(key)
				h.lose(key, 1)
				shard := woShards(h.t, woValue(5))[1]
				seqs := []uint64{h.set(setFrame{key: key, idx: 1, node: free, gen: 7, payload: shard, recovery: true})}
				h.complete(1)
				seqs = append(seqs, h.set(setFrame{key: key, idx: 1, node: free, gen: 8, payload: shard, recovery: true}))
				h.complete(1)
				if n := h.lookup(key).Chunks[1].Node; n != free {
					h.t.Errorf("chunk 1 maps to node %d after two repairs onto node %d", n, free)
				}
				return seqs
			},
			want: []string{"ACK", "ACK"}, present: 3,
			verify: func(h *writeHarness) {
				if n := h.p.Stats().Repairs.Load(); n != 2 {
					h.t.Errorf("Repairs = %d, want 2", n)
				}
				h.readsBack(key, woValue(5))
			},
		},
		{
			// D5: a repair computed from version 5 arrives after version 9
			// replaced it. It has no generation to be fenced by, so it is
			// fenced by content: the slot never held that checksum.
			name: "D5 late recovery of a superseded version", cold: true,
			script: func(h *writeHarness) []uint64 {
				h.put(key, woValue(5))
				h.put(key, woValue(9))
				_, free := h.placement(key)
				seq := h.set(setFrame{key: key, idx: 0, node: free, gen: 7, payload: woShards(h.t, woValue(5))[0], recovery: true})
				h.complete(1)
				return []uint64{seq}
			},
			want: []string{woSuperseded}, present: 3,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(9)) },
		},
		{
			name: "migration refused because the key exists", cold: true,
			script: func(h *writeHarness) []uint64 {
				h.put(key, woValue(9))
				var seqs []uint64
				for i, shard := range woShards(h.t, woValue(7)) {
					seqs = append(seqs, h.set(setFrame{key: key, idx: i, node: i, gen: 7, payload: shard, migration: true}))
				}
				return seqs
			},
			want: []string{migSupersededErr, migSupersededErr, migSupersededErr}, present: 3, open: 1,
			verify: func(h *writeHarness) { h.readsBack(key, woValue(9)) },
		},
		{
			name: "migration refused because the key is tombstoned",
			script: func(h *writeHarness) []uint64 {
				h.p.migMu.Lock()
				h.p.tombs = map[string]struct{}{key: {}}
				h.p.migMu.Unlock()
				var seqs []uint64
				for i, shard := range woShards(h.t, woValue(7)) {
					seqs = append(seqs, h.set(setFrame{key: key, idx: i, node: i, gen: 7, payload: shard, migration: true}))
				}
				return seqs
			},
			want: []string{migSupersededErr, migSupersededErr, migSupersededErr}, present: -1, open: 1,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := newWriteHarness(t, row.cold)
			if row.warm {
				h.put(key, woValue(1))
			}
			seqs := row.script(h)
			h.barrier()
			for i, seq := range seqs {
				if got := h.got[seq]; got != row.want[i] {
					t.Errorf("frame %d (seq %d) answered %q, want %q", i, seq, got, row.want[i])
				}
			}
			h.check("script done", key, row.present, row.resident, row.open)
			if row.verify != nil {
				row.verify(h)
			}
			// Whatever the script left open, the writer's hang-up settles.
			h.hangUp()
			final := row.present
			if row.dropped {
				final = -1
			}
			h.check("writer hung up", key, final, row.resident, 0)
		})
	}
}

// TestWriteTableDrainsAsPutsReturn is D4: the session's generation
// table holds a PUT only while it is open — N distinct keys written
// through one session leave it empty, not N entries long — and the pool
// accounting equals exactly the committed chunks.
func TestWriteTableDrainsAsPutsReturn(t *testing.T) {
	p, c := warmStack(t, &lambdanode.WarmPool{}, 4, Config{HotTierBytes: 1 << 20, HotMaxObjectBytes: 1 << 20}, hotClient)
	ctx := context.Background()
	const n = 2000
	val := bytes.Repeat([]byte("d4"), 512)
	for i := 0; i < n; i++ {
		if err := c.PutCtx(ctx, fmt.Sprintf("d4/%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	// A generation settles in the same wake that stages its last ack, so
	// by now all have. The GET makes the session goroutine take the
	// table lock once more after its last settle, and UsedBytes takes it
	// here: that orders the session's writes before the reads below for
	// the race detector too.
	if _, err := c.GetCtx(ctx, "d4/0"); err != nil {
		t.Fatal(err)
	}
	used := p.table.UsedBytes()
	p.mu.Lock()
	open := 0
	for s := range p.sessions {
		open += len(s.writes)
	}
	p.mu.Unlock()
	if open != 0 {
		t.Errorf("%d generations still in the session's table after %d PUTs returned, want 0", open, n)
	}
	if want := int64(n * woTotal * len(val) / woData); used != want {
		t.Errorf("UsedBytes = %d, want %d (%d committed chunks)", used, want, n*woTotal)
	}
	if got := p.table.Len(); got != n {
		t.Errorf("table holds %d entries, want %d", got, n)
	}
}
