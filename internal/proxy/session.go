package proxy

import (
	"infinicache/internal/bufpool"
	"infinicache/internal/protocol"
)

// Argument layout for client SET messages (one per chunk):
//
//	Args[0] chunk index
//	Args[1] total chunks (d+p)
//	Args[2] destination lambda index (IDλ, chosen by the client)
//	Args[3] object size in bytes
//	Args[4] data shards d
//	Args[5] put generation (client-unique per PUT; distinguishes a fresh
//	        overwrite from chunks of the same PUT)
//	Args[6] recovery flag (1 = re-insert of a single lost chunk; the
//	        frame belongs to no generation, Args[5] is ignored)
//	Args[7] migration flag (1 = proxy->proxy key handoff, written by
//	        client.Handoff; ingest via BeginObjectIfAbsent, never over
//	        an existing entry)
//	Args[8] chunk CRC32-C (optional; absent on legacy frames). Verified
//	        against the payload on arrival and stored with the chunk's
//	        mapping so node read-backs can be verified end to end. It is
//	        also what a recovery SET is fenced by: the chunk commits only
//	        into a slot that last held this very sum (CommitChunk), so a
//	        recovery frame without one is refused.
//
// GET requests may carry Args[0] = 1, the authoritative flag: serve
// regardless of ring ownership and answer a plain MISS instead of a
// fallback redirect (the client is already chasing a fallback).
//
// GET responses (TData, one per chunk) carry:
//
//	Args[0] chunk index
//	Args[1] object size
//	Args[2] data shards d
//	Args[3] total chunks
//	Args[4] chunk CRC32-C (optional; present when the stored chunk has
//	        one, letting the client verify the proxy→client hop too)
const (
	setArgIdx = iota
	setArgTotal
	setArgLambda
	setArgObjSize
	setArgDataShards
	setArgPutGen
	setArgRecovery
	setArgMigration
	setArgChecksum // = protocol.ChecksumArgSet

	// Stream geometry, present only on the head (stripe 0) SETs of a
	// multi-stripe streamed object: total object size and data bytes
	// per full stripe (see internal/protocol/stream.go).
	setArgStreamSize // = protocol.StreamArgSize
	setArgStripeData // = protocol.StreamArgStripeData
)

// maxChunks bounds a SET's total chunks, which sizes the mapping entry
// and the hot-tier capture its generation allocates: a malformed frame
// must not make the proxy allocate by an arbitrary number. Any real
// generation is far below it — Reed-Solomon over GF(256) codes at most
// 256 shards (ec.New).
const maxChunks = 1 << 16

// routeKey maps a mapping key to the key it routes by: every stripe of
// a streamed object lives on (and migrates with) its parent key's
// proxy, so ring ownership, fallback redirects and tombstones are all
// decided on the parent.
func routeKey(key string) string {
	parent, _ := protocol.ParseStripeKey(key)
	return parent
}

// sessionWindow bounds the chunk requests one client session may have
// in flight across all nodes; past it, the session drains completions
// before reading further client frames (natural backpressure). It is
// also the completions-channel capacity, which guarantees the node
// dispatchers never block — or drop a reply — when delivering here.
const sessionWindow = 1024

// session serves one client connection: a single event loop multiplexing
// inbound client frames and node-request completions over per-request
// state machines. No goroutine is spawned per message; a 10+2 PUT's
// twelve chunk SETs are all in flight down twelve node connections at
// once, and GET fan-out streams first-d DATA frames to the client as
// they land.
type session struct {
	p    *Proxy
	conn *protocol.Conn

	completions chan nodeReply
	outstanding int                     // chunk requests in flight
	chunks      map[uint64]pendingChunk // node request seq -> owning op
	byClient    map[uint64]pendingChunk // client seq -> op (CANCEL lookup)

	// Flush policy: the event loop stages client-bound frames under a
	// Pin window per wake and flushes only at client-visible progress
	// points — a GET reaching its d-th DATA frame, a PUT generation's
	// in-flight chunk SETs draining to zero, any verdict/error — because
	// intermediate frames cannot unblock the client (it needs d shards
	// to decode and every ack of a PUT to return). needFlush marks that
	// such a point occurred this wake.
	needFlush bool

	// admits queues the hot-tier inserts this wake's settled writes and
	// completed reads earned. They run after the wake's flush
	// (settleFlush), so admission — d checksums, frame encoding, the tier
	// lock and CLOCK eviction — never delays the frame a client waits on;
	// each capture's token still fences its late insert.
	admits []*hotCapture

	// writes holds the PUT generation this session has open per
	// mapping-entry key (an object key or a stripe key): opened by the
	// generation's first SET frame, removed by settleWrite and by nothing
	// else, so a frame or a completion finds its generation for as long
	// as one of its frames can still arrive.
	writes map[string]*writeOp
}

// writeOp tracks one PUT generation — all the chunk SETs of one logical
// PUT to one mapping-entry key — from its first frame to settleWrite. It
// owns the mapping incarnation its own BeginObject/BeginObjectIfAbsent
// created, and every chunk of the generation commits under that epoch,
// however late its frame arrives: a generation whose in-flight count
// touched zero mid-burst is still this generation. A dense generation
// (a client PUT, an MPut pair, a PutReader stripe) sends all total
// frames and settles when they have all arrived and none is in flight.
// A migration generation never completes by count and settles when
// superseded or when its connection closes: the migration worker sends
// dense ones (client.Handoff), but a sparse one — total is the RS total
// and absent chunks are skipped — is still accepted.
type writeOp struct {
	key       string
	gen       int64
	epoch     uint64 // the incarnation this generation created; guards every commit
	total     int    // frames a dense generation sends
	arrived   int    // frames answered or sent on to a node, refused ones included
	inflight  int    // chunk SETs at the nodes
	migration bool
	// failed: a chunk did not commit (refused, store failed, cancelled,
	// superseded). A failed generation must neither reach the hot tier
	// nor leave a never-completable mapping entry behind.
	failed bool
	// refused marks a migration generation the ingest side rejected
	// (the key already exists locally, or was tombstoned): every chunk
	// of the generation answers migSupersededErr and nothing commits.
	refused bool
	// capture is the write-through hot-tier admission, nil unless
	// BeginObject admitted the key.
	capture *hotCapture
}

// readOp tracks one client read — a whole-object first-d GET or a
// ranged GET — through its chunk fetches. Where the two shapes differ
// it is a field, not a second type: need is the completion rule (the
// first d arrivals of a parallel fan-out win, §3.2, versus every planned
// chunk must land), ranged selects the DATA-frame encoding and the
// terminal frame, and hot-tier capture is first-d only.
type readOp struct {
	clientSeq uint64
	key       string   // the key the client asked about (reply key)
	size      int64    // object size, as every reply frame reports it
	ranged    bool     // ranged DATA encoding, closed by a terminal frame
	need      int      // forwarded DATA frames that complete the read
	requested int      // chunk GETs issued
	remaining int      // chunk GETs not yet completed, plus the issue loop's hold
	forwarded int      // DATA frames relayed to the client
	missed    int      // definitive node MISSes
	failed    int      // transient failures (timeout, swap)
	done      bool     // the client already got its answer (or walked away)
	seqs      []uint64 // node request seqs, for cancellation

	// ents holds one entry per mapping entry the read fetches from: the
	// object's own for a whole-object read, one per planned stripe for a
	// ranged read.
	ents []readEntry

	// Read-through hot-tier admission: when the tier's ghost filter
	// marked this key warm, the first d forwarded payloads are captured
	// here and queued for insertion on the d-th; the capture's token
	// fences the insert against writes that land before it runs.
	capture *hotCapture
}

// readEntry is what every fetch a read makes against one mapping entry
// shares: which entry (and incarnation) it snapshotted, where its
// chunks live and the stored checksums read-backs are verified against,
// and — for a ranged read — where the stripe's data sits in the object.
type readEntry struct {
	key      string     // mapping-entry key (the object key or a stripe key)
	epoch    uint64     // entry incarnation this read snapshotted
	chunks   []chunkLoc // the entry's chunk snapshot at plan time
	d, total int
	stripe   int
	start    int64 // object offset of the stripe's data
	slen     int64 // data bytes in the stripe
	degraded bool  // part of a reconstruct-d fan-out, not an exact read
	want     []int // chunk indexes the plan fetches; issued by startRead
}

// setOp tracks one client chunk SET through its node store.
type setOp struct {
	clientSeq uint64
	seq       uint64   // node request seq, for cancellation
	w         *writeOp // the chunk's generation; nil for a recovery SET, which has none
	key       string
	idx       int
	node      int
	size      int64
	cancelled bool   // the client abandoned the PUT; do not commit
	payload   []byte // the client frame's pooled payload; recycled on completion
	sum       int64  // chunk CRC32-C from the SET frame, stored at commit
	hasSum    bool   // the frame carried a checksum arg
}

// pendingChunk links a node-request seq back to its op (exactly one of
// read/set is non-nil).
type pendingChunk struct {
	read *readOp
	set  *setOp
	ent  int // index into read.ents of the entry the chunk belongs to
	idx  int // chunk index within that entry
	node int // owning node manager, for cancellation
}

func newSession(p *Proxy, conn *protocol.Conn) *session {
	return &session{
		p: p, conn: conn,
		writes:      make(map[string]*writeOp),
		completions: make(chan nodeReply, sessionWindow),
		chunks:      make(map[uint64]pendingChunk),
		byClient:    make(map[uint64]pendingChunk),
	}
}

// run is the session's event loop; it returns when the client has hung
// up and the in-flight window has drained, or when the proxy shuts down.
func (s *session) run() {
	defer s.conn.Close()
	inbox := protocol.Pump(s.conn)
	for inbox != nil || s.outstanding > 0 {
		select {
		case <-s.p.done:
			return
		case m, ok := <-inbox:
			// Pin the client conn across the whole ready batch: every
			// DATA/ACK/ERR this wake produces rides one flush instead of
			// one per frame. The drain below is strictly non-blocking, so
			// the window always settles before the loop blocks again.
			s.conn.Pin()
			if !ok {
				// Client hung up; finish the in-flight window (commits
				// must still land in the mapping table) and exit.
				inbox = nil
			} else {
				s.handle(m)
			}
			s.drainReady(&inbox)
			s.settleFlush()
		case r := <-s.completions:
			s.conn.Pin()
			s.complete(r)
			s.drainReady(&inbox)
			s.settleFlush()
		}
	}
	// The client hung up and its window drained: no frame of a generation
	// still open can arrive any more, so each settles here — an
	// incomplete one as failed, or its partial entry would answer "write
	// in progress" for ever. The exit on p.done above settles nothing:
	// the table goes down with the proxy.
	for _, w := range s.writes {
		s.settleWrite(w)
	}
	s.runAdmits()
}

// issueFetch submits one chunk GET to its node on behalf of op: every
// node read a session makes goes through here, so the window
// accounting, the seq bookkeeping CANCEL relies on and the fetch count
// exist once. The caller has made room in the session window. Reports
// false (with its bookkeeping rolled back) when the proxy is shutting
// down and no reply will come.
func (s *session) issueFetch(op *readOp, ent, idx int) bool {
	e := &op.ents[ent]
	node := e.chunks[idx].Node
	seq := s.p.nextSeq()
	s.outstanding++
	op.requested++
	op.remaining++
	op.seqs = append(op.seqs, seq)
	s.chunks[seq] = pendingChunk{read: op, ent: ent, idx: idx, node: node}
	if !s.p.nodes[node].submit(protocol.TGet, seq, ChunkKey(e.key, idx), nil, s.completions) {
		s.outstanding--
		op.requested--
		op.remaining--
		delete(s.chunks, seq)
		return false
	}
	s.p.stats.NodeChunkGets.Add(1)
	return true
}

// settleFlush closes the wake's Pin window: flush if the wake hit a
// client-visible progress point, otherwise keep the intermediate
// frames staged (they ride the flush of a later wake that does, or the
// next unpinned send). Safe to hold because a client blocked on this
// session is, by construction, waiting for a frame that WILL set
// needFlush when it completes — intermediate frames alone never
// unblock it. The wake's queued tier admissions run after the flush.
func (s *session) settleFlush() {
	if s.needFlush {
		s.needFlush = false
		s.conn.Flush()
	} else {
		s.conn.Unpin()
	}
	s.runAdmits()
}

// runAdmits inserts the captures queued since the last call. The next
// frame this session reads is handled after them, so its own client's
// next GET already finds the entry.
func (s *session) runAdmits() {
	for i, c := range s.admits {
		s.p.hot.admit(c)
		s.admits[i] = nil
	}
	s.admits = s.admits[:0]
}

// drainReady opportunistically processes every client frame and node
// completion already queued, without ever blocking, so a burst — a
// pipelined PUT's d+p SET frames, a GET fan-in's first-d DATA — is
// handled (and its client-bound frames staged) in one pinned batch.
func (s *session) drainReady(inbox *<-chan *protocol.Message) {
	for {
		select {
		case m, ok := <-*inbox: // nil channel: case never ready
			if !ok {
				*inbox = nil
				continue
			}
			s.handle(m)
		case r := <-s.completions:
			s.complete(r)
		default:
			return
		}
	}
}

func (s *session) handle(m *protocol.Message) {
	switch m.Type {
	case protocol.TGet:
		s.handleGet(m)
	case protocol.TSet:
		s.handleSet(m)
	case protocol.TDel:
		s.handleDel(m)
	case protocol.TCancel:
		s.handleCancel(m)
	case protocol.TRing:
		s.handleRing(m)
	case protocol.TJoin:
		s.handleJoinDone(m)
	default:
		m.Free()
	}
}

// handleRing answers a client's ring fetch with the current epoch
// (version in Args[0], encoded member list as payload).
func (s *session) handleRing(m *protocol.Message) {
	seq := m.Seq
	m.Free()
	s.needFlush = true
	e := s.p.epoch.Load()
	s.conn.Send(&protocol.Message{
		Type: protocol.TRing, Seq: seq,
		Args: []int64{int64(e.Version())}, Payload: e.Encode(),
	})
}

// handleJoinDone processes a migration worker's done marker
// (client.HandoffDone: Args = [version, 1], Key = source proxy) and
// acks it, echoing the key, so the source knows the marker landed.
func (s *session) handleJoinDone(m *protocol.Message) {
	if m.Arg(1) == 1 && m.Key != "" {
		s.p.markMigrationDone(uint64(m.Arg(0)), m.Key)
		s.needFlush = true
		s.conn.Forward(protocol.TAck, m.Seq, m.Key, "", nil, nil)
	}
	m.Free()
}

// checkOwner enforces epoch ownership for key: when another proxy owns
// it under the installed ring, the client is redirected (WRONG_OWNER
// with the owner's address and the epoch version) and false returns.
func (s *session) checkOwner(seq uint64, key string) bool {
	e := s.p.epoch.Load()
	owner := e.Owner(routeKey(key))
	if owner == "" || owner == s.p.addr {
		return true
	}
	s.p.stats.Redirects.Add(1)
	s.needFlush = true
	s.conn.Send(&protocol.Message{
		Type: protocol.TWrongOwner, Seq: seq, Key: key, Addr: owner,
		Args: []int64{int64(e.Version())},
	})
	return false
}

// handleCancel abandons one in-flight client request (m.Seq): the
// owning op stops talking to the client, and every node request it
// still has pending is withdrawn from its dispatcher so the window
// slots free up immediately instead of when the node answers. No reply
// is sent — the client has already deregistered the seq.
func (s *session) handleCancel(m *protocol.Message) {
	defer m.Free()
	pc, ok := s.byClient[m.Seq]
	if !ok {
		return // already completed, or never existed
	}
	s.p.stats.Cancels.Add(1)
	if pc.set != nil {
		pc.set.cancelled = true
		s.p.nodes[pc.set.node].cancel(pc.set.seq)
		return
	}
	pc.read.done = true // suppress DATA forwarding and the final verdict
	for _, seq := range pc.read.seqs {
		if ch, live := s.chunks[seq]; live {
			s.p.nodes[ch.node].cancel(seq)
		}
	}
}

// reserveWindow blocks until n more chunk requests fit in the session
// window, draining completions meanwhile. Returns false on shutdown.
func (s *session) reserveWindow(n int) bool {
	for s.outstanding > 0 && s.outstanding+n > sessionWindow {
		select {
		case <-s.p.done:
			return false
		case r := <-s.completions:
			s.complete(r)
		}
	}
	return true
}

func (s *session) sendErr(seq uint64, key, text string) {
	s.needFlush = true // verdicts always reach the wire this wake
	s.conn.Send(&protocol.Message{Type: protocol.TErr, Seq: seq, Key: key, Payload: []byte(text)})
}

// serveHot answers a GET entirely from the hot tier by replaying the
// entry's precomputed wire image: the d DATA frames (index, size and
// RS geometry included, so the client decode path is untouched) were
// fully encoded at admission, and the hit is one SendPrebuilt — seq
// stamped into the staged header bytes, payloads pinned as iovecs,
// typically one writev and zero per-hit frame encoding. Small images
// stage under the wake's pin and ride its flush instead. The image and
// its chunk slices are immutable and GC-owned, so the replay needs no
// tier lock and cannot race an invalidation. The mapping-table CLOCK
// bit is still touched: a tier-served object must not look cold to
// pool-level eviction.
func (s *session) serveHot(seq uint64, key string, e *hotEntry) {
	s.p.table.Touch(key)
	s.conn.SendPrebuilt(e.wire, seq)
	s.needFlush = true
	s.p.stats.GetHits.Add(1)
}

// handleSet stores one erasure-coded chunk on the client-chosen node.
// The frame's pooled payload travels to the node without a copy or a
// re-wrap and is recycled when the node's ACK (or failure) completes
// the op.
func (s *session) handleSet(m *protocol.Message) {
	s.p.stats.Puts.Add(1)
	idx := int(m.Arg(setArgIdx))
	total := int(m.Arg(setArgTotal))
	lambdaIdx := int(m.Arg(setArgLambda))
	recovery := m.Arg(setArgRecovery) == 1
	migration := m.Arg(setArgMigration) == 1

	d := m.Arg(setArgDataShards)
	if lambdaIdx < 0 || lambdaIdx >= len(s.p.nodes) || idx < 0 || idx >= total || total > maxChunks || d <= 0 || d > int64(total) {
		s.sendErr(m.Seq, m.Key, "proxy: bad SET arguments")
		m.Free()
		return
	}
	// The frame's open generation, unless it is the first frame of one.
	// A recovery SET re-inserts one chunk of an existing object and
	// belongs to no generation.
	var w *writeOp
	if open := s.writes[m.Key]; open != nil && !recovery && open.gen == m.Arg(setArgPutGen) {
		w = open
	}
	sum, hasSum := int64(0), false
	if len(m.Args) > setArgChecksum {
		sum, hasSum = m.Arg(setArgChecksum), true
		if protocol.ChunkSum(m.Key, idx, m.Payload) != sum {
			// Corrupted on the client→proxy (or source-proxy→here) hop —
			// in the payload, or in the key/index the sum is bound to:
			// never store garbage, and never store good bytes under
			// garbled routing. Fail the generation so its partial entry
			// is dropped, and answer a transient so the writer retries
			// the whole PUT with fresh bytes.
			s.p.stats.ChecksumFailures.Add(1)
			s.failWrite(w)
			s.sendTransient(m.Seq, m.Key, protocol.TransientNodeFailure)
			m.Free()
			return
		}
	}
	if !migration && !s.checkOwner(m.Seq, m.Key) {
		// A stale-ring client wrote here. Chunks of this generation that
		// arrived before the epoch flipped may be in flight; fail the
		// generation so its never-completable entry is dropped — the
		// client retries the whole PUT at the owner.
		s.failWrite(w)
		m.Free()
		return
	}
	size := int64(len(m.Payload))

	if recovery {
		// Recovery re-inserts one chunk of an existing object; if the
		// object vanished meanwhile there is nothing to repair.
		if _, ok := s.p.table.Lookup(m.Key); !ok {
			s.sendErr(m.Seq, m.Key, "proxy: recovery for unknown object")
			m.Free()
			return
		}
	} else {
		if w == nil {
			w = s.beginWrite(m, migration)
		}
		if w.refused {
			w.arrived++
			s.sendErr(m.Seq, m.Key, migSupersededErr)
			m.Free()
			return
		}
		if w.capture != nil {
			w.capture.add(idx, m.Payload)
		}
	}

	dels, evicted, err := s.p.table.Reserve(lambdaIdx, size, m.Key)
	s.p.queueDels(dels)
	s.p.stats.Evictions.Add(int64(evicted))
	if err != nil {
		s.failWrite(w)
		s.sendErr(m.Seq, m.Key, err.Error())
		m.Free()
		return
	}

	if !s.reserveWindow(1) {
		// Shutdown: undo the reservation and consume the frame.
		s.p.table.ReleaseChunk(lambdaIdx, size)
		m.Free()
		return
	}
	seq := s.p.nextSeq()
	op := &setOp{
		clientSeq: m.Seq, seq: seq, w: w, key: m.Key, idx: idx, node: lambdaIdx,
		size: size, payload: m.Payload, sum: sum, hasSum: hasSum,
	}
	s.outstanding++
	s.chunks[seq] = pendingChunk{set: op, node: lambdaIdx}
	s.byClient[m.Seq] = pendingChunk{set: op}
	if !s.p.nodes[lambdaIdx].submit(protocol.TSet, seq, ChunkKey(m.Key, idx), m.Payload, s.completions) {
		s.outstanding--
		delete(s.chunks, seq)
		delete(s.byClient, m.Seq)
		s.p.table.ReleaseChunk(lambdaIdx, size)
		m.Free()
		return
	}
	if w != nil {
		// Counted only now that the frame has left this function: making
		// room in the window above completes other chunks of w, and a
		// last frame counted on arrival would let them settle the
		// generation under its own submission.
		w.arrived++
		w.inflight++
	}
	// The payload now belongs to the setOp (recycled on completion); the
	// frame struct itself is done.
	m.Payload = nil
	m.Free()
}

// beginWrite opens the PUT generation m is the first frame of — the one
// place a mapping entry is (re)initialised, a migrated key refused and
// write-through admission decided. Whatever generation of the key the
// session still had open is retired first: a writer's frames arrive in
// order, so none of the old one's can follow, and those of its chunks
// still in flight complete as superseded.
func (s *session) beginWrite(m *protocol.Message, migration bool) *writeOp {
	if old := s.writes[m.Key]; old != nil {
		s.settleWrite(old)
	}
	objSize, dShards, total := m.Arg(setArgObjSize), int(m.Arg(setArgDataShards)), int(m.Arg(setArgTotal))
	var streamSize, stripeData int64
	if len(m.Args) > setArgStripeData {
		streamSize = m.Arg(setArgStreamSize)
		stripeData = m.Arg(setArgStripeData)
	}
	w := &writeOp{key: m.Key, gen: m.Arg(setArgPutGen), total: total, migration: migration}
	switch {
	case migration && s.p.tombstoned(routeKey(m.Key)):
		w.refused = true
	case migration:
		// Proxy->proxy key handoff. Ingest only when the key is unknown
		// here, or holds no more than an earlier handoff's incomplete
		// ingest: an existing entry (a client PUT routed by the new ring)
		// or a tombstone (the key was deleted during the handoff window)
		// is strictly newer than the streamed copy, so the whole
		// generation is refused with migSupersededErr — the source drops
		// its copy on seeing it.
		dels, epoch, fresh := s.p.table.BeginObjectIfAbsent(m.Key, objSize, dShards, total, streamSize, stripeData)
		s.p.queueDels(dels)
		w.epoch, w.refused = epoch, !fresh
	default:
		// The first chunk of a new PUT generation (re)initialises the
		// object's mapping entry — cache invalidation upon overwrite —
		// and, in the same critical section, invalidates the hot tier
		// (a concurrent GET can never observe the superseded payload)
		// and decides write-through admission. Running both under the
		// table lock keeps the table's epoch order and the tier's
		// invalidation order identical even when two sessions race
		// PUTs to one key.
		dels, epoch, admit, token := s.p.table.BeginObject(m.Key, objSize, dShards, total, streamSize, stripeData)
		s.p.queueDels(dels)
		w.epoch = epoch
		if admit {
			w.capture = newHotCapture(m.Key, token, objSize, dShards, total)
		}
	}
	s.writes[m.Key] = w
	return w
}

// failWrite charges a frame that will not reach a node to its
// generation. w is nil when the frame opened none — a recovery SET, or a
// first frame refused before beginWrite, which nobody counts: such a
// generation sits one short of total and settleWrite reads that as
// failed.
func (s *session) failWrite(w *writeOp) {
	if w != nil {
		w.arrived++
		w.failed = true
		s.idleWrite(w)
	}
}

// idleWrite runs each time one of w's frames has left the session —
// its chunk completed, or it was refused before reaching a node. With
// nothing of the generation in flight, the frame just answered is what
// its writer may be blocked on, so the wake must flush; but that ends
// nothing — an ordinary writer drains mid-burst — unless every frame of
// a dense generation has also arrived.
func (s *session) idleWrite(w *writeOp) {
	if w.inflight > 0 {
		return
	}
	s.needFlush = true
	if !w.migration && w.arrived >= w.total && s.writes[w.key] == w {
		s.settleWrite(w)
	}
}

// settleWrite is a PUT generation's one end of life, reached when every
// frame of it has arrived and none is in flight (idleWrite), when a
// newer generation of the key opens on this session (beginWrite), or at
// session teardown (run). A clean generation's write-through capture is
// queued for the hot tier behind the wake's flush (the epoch token
// still rejects it if an overwrite or a DEL began meanwhile). Anything
// else is failed — a chunk did not commit, one is still in flight, or a
// dense generation is short of frames — and a failed generation whose
// mapping entry can never serve a GET — fewer than d chunks committed —
// is dropped so the key reads as a clean MISS (the §5.2 RESET path)
// instead of "write in progress" forever.
func (s *session) settleWrite(w *writeOp) {
	delete(s.writes, w.key)
	if w.failed || w.inflight > 0 || (!w.migration && w.arrived < w.total) {
		if dels, dropped := s.p.table.DropIfIncomplete(w.key, w.epoch); dropped {
			s.p.queueDels(dels)
		}
	} else if w.capture != nil {
		s.admits = append(s.admits, w.capture)
	}
}

// sendFallback answers a GET with a fallback redirect toward the key's
// previous-epoch owner when the inbound-migration window still covers
// the key; reports whether a redirect was sent.
func (s *session) sendFallback(seq uint64, key string) bool {
	owner, ver, fb := s.p.fallbackOwner(key)
	if !fb {
		return false
	}
	s.p.stats.Redirects.Add(1)
	s.p.stats.FallbackServes.Add(1)
	s.needFlush = true
	s.conn.Send(&protocol.Message{
		Type: protocol.TWrongOwner, Seq: seq, Key: key, Addr: owner,
		Args: []int64{int64(ver), 1},
	})
	return true
}

// handleGet serves a client read. A whole-object GET is the first-d
// parallel fan-out (§3.2): every present chunk is requested at once —
// the dispatchers pipeline them down the node connections — and the
// first d arrivals stream straight to the client; stragglers are
// recycled as they trickle in. A ranged GET fetches exactly the chunks
// its plan names, and all of them must land.
func (s *session) handleGet(m *protocol.Message) {
	s.p.stats.Gets.Add(1)
	defer m.Free()
	// Args[0] = 1 is the authoritative flag: the client was already
	// redirected here by the key's new owner (fallback), so ownership is
	// not re-checked and a miss is answered plainly.
	authoritative := m.Arg(0) == 1
	ranged := m.Arg(protocol.RangeArgFlag) == 1
	if !authoritative && !s.checkOwner(m.Seq, m.Key) {
		return
	}
	var token uint64
	var capture bool
	if s.p.hot != nil && !ranged {
		// Ranged GETs bypass the hot tier entirely: the tier caches
		// whole objects and a sub-object read must not earn residency
		// for (or be served) bytes it did not ask for.
		var e *hotEntry
		if e, token, capture = s.p.hot.get(m.Key); e != nil {
			s.serveHot(m.Seq, m.Key, e)
			return
		}
	}
	meta, ok := s.p.table.Lookup(m.Key)
	if !ok {
		// During the inbound-migration window a local miss may just
		// mean the previous owner has not streamed the key yet: point
		// the client at it (fallback redirect, Args[1] = 1) instead
		// of answering a false MISS.
		if !authoritative && s.sendFallback(m.Seq, m.Key) {
			return
		}
		s.p.stats.GetMisses.Add(1)
		s.needFlush = true
		s.conn.Send(&protocol.Message{Type: protocol.TMiss, Seq: m.Seq, Key: m.Key})
		return
	}
	op := &readOp{clientSeq: m.Seq, key: m.Key, size: meta.Size, ranged: ranged}
	switch {
	case ranged:
		ok = s.planRange(op, meta, m.Arg(protocol.RangeArgOff), m.Arg(protocol.RangeArgLen))
	case meta.StreamSize > 0:
		// A whole-object GET of a multi-stripe streamed object: redirect
		// the client to the ranged path with the object's total size —
		// materialising every stripe through the single-stripe fan-in
		// would defeat the plane's memory bound.
		s.needFlush = true
		s.conn.Send(&protocol.Message{
			Type: protocol.TErr, Seq: m.Seq, Key: m.Key,
			Args:    []int64{protocol.StreamObjectFlag, meta.StreamSize},
			Payload: []byte("proxy: streamed object; read it ranged"),
		})
		return
	default:
		ok = s.planWhole(op, meta, authoritative)
		if ok && capture && s.p.hot.policy.Admits(meta.Size) {
			// Ghost-warm key: read-admit by copying the first-d payloads as
			// they stream through (whatever d chunks win the fan-in race).
			op.capture = newHotCapture(m.Key, token, meta.Size, meta.DataShards, meta.TotalShards)
		}
	}
	if ok {
		s.startRead(op)
	}
}

// presentChunks lists the chunk indexes of a mapping entry not known
// lost.
func presentChunks(meta objMeta) []int {
	present := make([]int, 0, len(meta.Chunks))
	for i, c := range meta.Chunks {
		if c.Present {
			present = append(present, i)
		}
	}
	return present
}

// unservable answers a read that found fewer than d chunks of entryKey
// present — the verdict is decided before any frame of the read is
// forwarded.
func (s *session) unservable(op *readOp, entryKey string, meta objMeta) {
	if meta.Lost == 0 {
		// No chunk was ever positively lost: the object is simply
		// mid-write (a fresh generation's chunks have not all
		// committed). Not a loss — tell the client to retry; the
		// next attempt reads the committed generation.
		s.sendTransient(op.clientSeq, op.key, protocol.TransientBusyWrite)
		return
	}
	// More than p chunks already lost: the object is gone (for a stripe
	// entry the drop cascades across the whole streamed object).
	s.objectLost(op.clientSeq, op.key, entryKey, meta.Epoch)
}

// planWhole plans a whole-object read: one entry, first-d completion.
// Reports false when the client was answered instead.
func (s *session) planWhole(op *readOp, meta objMeta, authoritative bool) bool {
	present := presentChunks(meta)
	d := meta.DataShards
	if len(present) < d {
		// A half-ingested migration entry: the previous owner still
		// holds a complete copy (drop-after-ack), so redirect there
		// rather than have the client burn its retry budget on
		// busy-write while the ingest waits out node cold starts.
		if meta.Lost == 0 && meta.Migrating && !authoritative && s.sendFallback(op.clientSeq, op.key) {
			return false
		}
		s.unservable(op, op.key, meta)
		return false
	}
	op.need = d
	op.ents = []readEntry{{
		key: op.key, epoch: meta.Epoch, chunks: meta.Chunks,
		d: d, total: meta.TotalShards, want: present,
	}}
	return true
}

// planRange plans a ranged read: the byte range is mapped onto exactly
// the data chunks it intersects (per stripe, never parity, never a
// full-d fan-out for a sub-stripe read) and each chunk streams to the
// client as it lands, tagged with its stripe geometry; a terminal frame
// (chunk index -1) closes the reply. A stripe whose exact chunks are
// unavailable but which still has d present chunks is served degraded —
// d present chunks, flagged, for the client to reconstruct. meta is the
// parent key's entry. Reports false when the client was answered
// instead; every such verdict is drawn here, before startRead forwards
// the first frame.
func (s *session) planRange(op *readOp, meta objMeta, off, n int64) bool {
	s.p.stats.RangedGets.Add(1)
	// A legacy (or single-stripe streamed) object is one stripe whose
	// data bytes are the whole object.
	stripeData := meta.Size
	if meta.StreamSize > 0 {
		op.size, stripeData = meta.StreamSize, meta.StripeData
	}
	spans := protocol.PlanRange(op.size, stripeData, meta.DataShards, off, n)
	if len(spans) == 0 {
		// Empty or fully past-EOF request: the terminal frame alone,
		// which also tells the client the object's true size.
		s.sendRangeTerminal(op.clientSeq, op.key, op.size)
		return false
	}
	op.ents = make([]readEntry, 0, len(spans))
	degradedAny := false
	for _, sp := range spans {
		smeta, skey := meta, op.key
		if sp.Stripe > 0 {
			skey = protocol.StripeKey(op.key, sp.Stripe)
			var ok bool
			if smeta, ok = s.p.table.Lookup(skey); !ok {
				// Head present but this stripe's entry missing: the
				// streamed write (or a stripe retry) is still in flight —
				// the drop cascade guarantees eviction/loss never leaves
				// this shape behind, so busy-write is the honest answer.
				s.sendTransient(op.clientSeq, op.key, protocol.TransientBusyWrite)
				return false
			}
		}
		want, degraded := sp.Shards, false
		for _, i := range want {
			if i >= len(smeta.Chunks) || !smeta.Chunks[i].Present {
				degraded = true
				break
			}
		}
		if degraded {
			present := presentChunks(smeta)
			if len(present) < smeta.DataShards {
				s.unservable(op, skey, smeta)
				return false
			}
			want = present[:smeta.DataShards]
			degradedAny = true
		}
		op.need += len(want)
		op.ents = append(op.ents, readEntry{
			key: skey, epoch: smeta.Epoch, chunks: smeta.Chunks,
			d: smeta.DataShards, total: smeta.TotalShards,
			stripe: sp.Stripe, start: sp.Start, slen: sp.Len,
			degraded: degraded, want: want,
		})
	}
	if degradedAny {
		s.p.stats.DegradedGets.Add(1)
	}
	return true
}

// startRead issues a planned read's fetches, one mapping entry at a
// time: reserveWindow makes room for each entry's chunks first —
// draining completions, and forwarding their frames, meanwhile — so a
// plan wider than the session window goes out in window-sized batches
// and s.outstanding never exceeds what the completions channel holds.
// The loop keeps one hold on op.remaining so that the read cannot
// drain (and draw its exhaustion verdict) while fetches are still
// being issued.
func (s *session) startRead(op *readOp) {
	s.byClient[op.clientSeq] = pendingChunk{read: op}
	op.remaining = 1
	planned := 0
	for ent := range op.ents {
		planned += len(op.ents[ent].want)
	}
	op.seqs = make([]uint64, 0, planned)
	for ent := range op.ents {
		e := &op.ents[ent]
		if !s.reserveWindow(len(e.want)) {
			return
		}
		for _, idx := range e.want {
			if !s.issueFetch(op, ent, idx) {
				return // shutting down
			}
		}
	}
	s.settleRead(op)
}

// completeRead advances a read on one finished chunk fetch.
func (s *session) completeRead(pc pendingChunk, resp *protocol.Message) {
	op, idx := pc.read, pc.idx
	e := &op.ents[pc.ent]
	switch {
	case op.done:
		// First-d already served, verdict already sent, or the client
		// walked away: this is a straggler whose journey ends here.
	case resp != nil && resp.Type == protocol.TData:
		if c := e.chunks[idx]; c.HasSum && protocol.ChunkSum(e.key, idx, resp.Payload) != c.Sum {
			// Corruption on the node→proxy hop or in storage: never
			// forward it. A chunk the strike loses is a miss the client
			// reconstructs around (a ranged retry plans a degraded stripe
			// around it); a first strike fails this fetch only.
			if s.p.strikeCorrupt(e.key, idx, pc.node, e.epoch) {
				op.missed++
			} else {
				op.failed++
			}
			break
		}
		s.forwardData(op, e, idx, resp.Payload)
		if op.capture != nil {
			op.capture.add(idx, resp.Payload)
		}
		op.forwarded++
		if op.forwarded < op.need {
			break
		}
		// This DATA frame is what unblocks the client.
		op.done = true
		s.needFlush = true
		s.p.stats.GetHits.Add(1)
		if op.missed+op.failed > 0 {
			s.p.stats.DegradedGets.Add(1)
		}
		if op.capture != nil {
			s.admits = append(s.admits, op.capture)
			op.capture = nil
		}
		if op.ranged {
			s.sendRangeTerminal(op.clientSeq, op.key, op.size)
		}
	case resp != nil && resp.Type == protocol.TMiss:
		// The node definitively lost this chunk (reclaimed instance):
		// record it in the mapping table. Epoch- and node-guarded — if
		// an overwrite replaced the entry mid-fan-out, or a repair moved
		// the chunk off this node, this MISS is about a copy the slot no
		// longer points at and must not taint it.
		s.p.stats.ChunkMisses.Add(1)
		s.p.table.MarkChunkLost(e.key, idx, pc.node, e.epoch)
		op.missed++
	default:
		// Transient failure (timeout, mid-backup swap): the chunk
		// may still exist; do not mark it lost.
		op.failed++
	}
	if resp != nil {
		// Zero-rewrap relay: a forwarded payload went out under a
		// rewritten header and now returns straight to the pool.
		resp.Free()
	}
	s.settleRead(op)
}

// forwardData relays one chunk payload to the client under the frame
// encoding the read's shape calls for — no copy, no fresh Message.
func (s *session) forwardData(op *readOp, e *readEntry, idx int, payload []byte) {
	c := e.chunks[idx]
	if !op.ranged {
		args := [5]int64{int64(idx), op.size, int64(e.d), int64(e.total), c.Sum}
		n := 4
		if c.HasSum {
			n = 5
		}
		s.conn.Forward(protocol.TData, op.clientSeq, op.key, "", args[:n], payload)
		return
	}
	var args [9]int64
	args[protocol.RangeDataArgIdx] = int64(idx)
	args[protocol.RangeDataArgSize] = op.size
	args[protocol.RangeDataArgShards] = int64(e.d)
	args[protocol.RangeDataArgTotal] = int64(e.total)
	args[protocol.RangeDataArgStripe] = int64(e.stripe)
	args[protocol.RangeDataArgStripeStart] = e.start
	args[protocol.RangeDataArgStripeLen] = e.slen
	var flags int64
	if e.degraded {
		flags |= protocol.RangeFlagDegraded
	}
	if c.HasSum {
		args[protocol.RangeDataArgSum] = c.Sum
		flags |= protocol.RangeFlagHasSum
	}
	args[protocol.RangeDataArgFlags] = flags
	s.conn.Forward(protocol.TData, op.clientSeq, op.key, "", args[:], payload)
}

// settleRead releases one unit of op.remaining — a completed fetch, or
// startRead's hold — and, once nothing is outstanding on a read that
// never completed, draws its verdict.
func (s *session) settleRead(op *readOp) {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	delete(s.byClient, op.clientSeq)
	if op.done {
		return
	}
	op.done = true
	// A ranged read has no first-d race: every planned chunk must land,
	// so any miss or failure fails the attempt with a transient (the
	// loss is recorded; the client's retry plans around it, degrading
	// the stripe or drawing the loss verdict). Otherwise confirmed
	// losses alone exceeding parity mean the object is gone; anything
	// less, the object may survive — tell the client to retry rather
	// than declaring a loss.
	if !op.ranged && op.requested-op.missed < op.need {
		s.objectLost(op.clientSeq, op.key, op.key, op.ents[0].epoch)
		return
	}
	s.sendTransient(op.clientSeq, op.key, protocol.TransientNodeFailure)
}

// sendRangeTerminal closes a ranged reply: chunk index -1, no payload,
// the object's total size in the size slot. Sent strictly after every
// data frame (the client conn is FIFO), it doubles as the whole answer
// for an empty or past-EOF range.
func (s *session) sendRangeTerminal(seq uint64, key string, size int64) {
	s.needFlush = true
	var args [9]int64
	args[protocol.RangeDataArgIdx] = -1
	args[protocol.RangeDataArgSize] = size
	s.conn.Forward(protocol.TData, seq, key, "", args[:], nil)
}

// complete advances the op owning one finished node request.
func (s *session) complete(r nodeReply) {
	pc, ok := s.chunks[r.Seq]
	if !ok {
		if r.Msg != nil {
			r.Msg.Free()
		}
		return
	}
	delete(s.chunks, r.Seq)
	s.outstanding--
	if pc.set != nil {
		s.completeSet(pc.set, r.Msg)
	} else {
		s.completeRead(pc, r.Msg)
	}
}

// completeSet settles one chunk SET on its node's answer. Everything
// about the chunk's generation is read from op.w — no lookup by key can
// come back empty because the generation drained a moment ago.
func (s *session) completeSet(op *setOp, resp *protocol.Message) {
	delete(s.byClient, op.clientSeq)
	w := op.w
	recovery := w == nil
	var epoch uint64 // the generation's incarnation; 0 fences a recovery by content
	if !recovery {
		w.inflight--
		epoch = w.epoch
	} else {
		// A repair's writer waits on each ack: every one is a flush point.
		s.needFlush = true
	}
	acked := resp != nil && resp.Type == protocol.TAck
	committed := false
	switch {
	case op.cancelled && !(recovery && acked):
		// The client abandoned the PUT: never commit — and so, failed
		// below, the generation must not reach the hot tier either (the
		// synchronous-invalidate rule: cancel/un-commit paths keep the
		// tier from serving data the client believes unwritten). The
		// node may have stored the chunk anyway — a cancel withdrawn in
		// flight gets a nil outcome here while the SET still lands — so
		// delete its copy: an uncommitted chunk is garbage the
		// accounting no longer tracks, and deleting an absent key is a
		// no-op. The one exception is recovery: a recovery SET
		// re-inserts the object's TRUE chunk content without a
		// BeginObject, so the same chunk key may be live and committed
		// on this very node — deleting would destroy healthy data; a
		// cancelled-but-acked repair instead falls through and commits
		// (the repair succeeded; the caller's departure doesn't
		// invalidate it), and a withdrawn one just releases its
		// reservation.
		s.p.table.ReleaseChunk(op.node, op.size)
		if !recovery {
			s.p.nodes[op.node].queueDel(ChunkKey(op.key, op.idx))
		}
	case !acked:
		s.p.table.ReleaseChunk(op.node, op.size)
		s.sendErr(op.clientSeq, op.key, "proxy: chunk store failed")
	default:
		superseded := !recovery && s.writes[op.key] != w
		moved, ok := -1, false
		if !superseded {
			moved, ok = s.p.table.CommitChunk(op.key, op.idx, op.node, op.size, epoch, op.sum, op.hasSum)
		}
		if ok {
			committed = true
			if moved >= 0 {
				// A repair moved a straggler: its old copy is garbage now.
				s.p.nodes[moved].queueDel(ChunkKey(op.key, op.idx))
			}
			if recovery {
				s.p.stats.Repairs.Add(1)
			}
			args := [1]int64{int64(op.idx)}
			s.conn.Forward(protocol.TAck, op.clientSeq, op.key, "", args[:], nil)
			break
		}
		// A newer PUT generation superseded this chunk — either
		// same-session (a newer generation of the key opened while it
		// was re-driven) or cross-session (the entry's epoch no longer
		// matches, and CommitChunk refused and released the
		// reservation); a refused recovery carried content the slot
		// never held. Committing would splice stale bytes into the
		// newer incarnation. Delete the node's copy too: it may have
		// clobbered the new generation's chunk under the same key —
		// a lost chunk is recoverable through parity, a silently
		// mixed one is not.
		if superseded {
			s.p.table.ReleaseChunk(op.node, op.size)
		}
		s.p.nodes[op.node].queueDel(ChunkKey(op.key, op.idx))
		text := "proxy: chunk superseded by a newer put"
		if !recovery && w.migration {
			// The source drops its copy on this text and no other: a
			// client PUT that landed mid-stream is as newer as one that
			// landed before it.
			text = migSupersededErr
		}
		s.sendErr(op.clientSeq, op.key, text)
	}
	if resp != nil {
		resp.Free()
	}
	// This hop consumed the client's SET frame; its payload is free.
	bufpool.Put(op.payload)
	op.payload = nil
	if !recovery {
		if !committed {
			w.failed = true
		}
		s.idleWrite(w)
	}
}

// sendTransient tells the client to retry: the object is not (known)
// lost, this attempt just cannot produce d chunks. reason classifies
// the transient (protocol.TransientBusyWrite for an epoch-guard
// "overwrite in progress" window the client should wait out,
// protocol.TransientNodeFailure for node timeouts it should retry at
// once) so the client's backoff can match the cause.
func (s *session) sendTransient(seq uint64, key string, reason int64) {
	s.needFlush = true
	s.conn.Send(&protocol.Message{
		Type: protocol.TErr, Seq: seq, Key: key,
		Args:    []int64{protocol.TransientFlag, reason},
		Payload: []byte("proxy: transient chunk failures; retry"),
	})
}

// objectLost reports an unavailable object: > p chunks lost. The client
// will RESET it (fetch from the backing store and re-insert, §5.2). The
// drop (and, for a stripe entry, its cascade across the stripe family)
// is keyed by entryKey, the verdict by replyKey, the key the client
// asked about. Epoch-guarded: if a concurrent overwrite already
// replaced the entry this read snapshotted, nothing is dropped — the
// loss verdict belongs to the superseded incarnation, so the client is
// told to retry (and will read the new generation once it commits)
// instead of resetting an object that just got rewritten.
func (s *session) objectLost(seq uint64, replyKey, entryKey string, epoch uint64) {
	dels, ok := s.p.table.DropIfEpoch(entryKey, epoch)
	if !ok {
		s.sendTransient(seq, replyKey, protocol.TransientBusyWrite)
		return
	}
	s.p.stats.ObjectLosses.Add(1)
	s.p.queueDels(dels)
	s.needFlush = true
	s.conn.Send(&protocol.Message{
		Type: protocol.TMiss, Seq: seq, Key: replyKey, Args: []int64{1}, // 1 = loss, not cold miss
	})
}

func (s *session) handleDel(m *protocol.Message) {
	s.p.stats.Dels.Add(1)
	if !s.checkOwner(m.Seq, m.Key) {
		m.Free()
		return
	}
	// During the inbound-migration window, record the deletion so a
	// late-arriving migration SET for this key is refused instead of
	// resurrecting it.
	s.p.noteTombstone(m.Key)
	// Drop invalidates the hot tier inside the table's critical section
	// (dropLocked), so after the ACK below no GET can be served the
	// deleted object from either structure.
	s.p.queueDels(s.p.table.Drop(m.Key))
	s.needFlush = true
	s.conn.Forward(protocol.TAck, m.Seq, m.Key, "", nil, nil)
	m.Free()
}
