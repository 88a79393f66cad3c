package proxy

import (
	"hash/fnv"
	"strings"
	"sync"

	"infinicache/internal/cluster"
	"infinicache/internal/protocol"
)

// This file is the proxy half of the migration/recovery plane: epoch
// installation, the inbound-migration window (fallback redirects and
// DEL tombstones), and the paced outbound worker that streams moved
// keys to their new owners.
//
// Ownership and the handoff are governed by three rules:
//
//  1. A key's copy at its new owner always wins: migration SETs ingest
//     via BeginObjectIfAbsent, so a client PUT routed by the new ring
//     can never be clobbered by the background stream.
//  2. The old owner drops its copy only after the new owner acked every
//     chunk (or refused the key as already superseded) — at every
//     instant at least one proxy can serve the key.
//  3. While inbound migration is pending, the new owner turns a local
//     miss into a fallback redirect toward the old owner instead of a
//     MISS, and records DEL tombstones so a late migration SET cannot
//     resurrect a deleted key. The window closes when every old-epoch
//     member has sent its done marker.

// migSupersededErr is the wire text a destination answers when it
// refuses a migrated key it already holds (or has tombstoned). The
// source recognises it and drops its own copy — the destination's is
// newer.
const migSupersededErr = "proxy: migration superseded"

// SetEpoch installs a new membership epoch. prev is the epoch being
// replaced (nil for the initial install, which triggers no migration).
// Stale installs (version <= current) are ignored. When this proxy was
// a member of prev, a background worker streams every key whose
// ownership moved to its new owner; when it is a member of next, the
// inbound window opens until every other prev member reports done.
//
// The deployment layer must install the epoch on *destination* proxies
// before sources: a redirect target has to be enforcing the new epoch
// before anyone is redirected to it.
func (p *Proxy) SetEpoch(prev, next *cluster.Epoch) {
	if p.epoch.Load().Version() >= next.Version() {
		return
	}
	if prev != nil && next.Contains(p.addr) {
		expect := 0
		for _, m := range prev.Members() {
			if m.Addr != p.addr {
				expect++
			}
		}
		if expect > 0 {
			p.migMu.Lock()
			p.migVer = next.Version()
			p.migFrom = make(map[string]bool, expect)
			p.tombs = make(map[string]struct{})
			p.prevEpoch.Store(prev)
			if p.migEarlyV == p.migVer {
				for _, src := range p.migEarly {
					p.markDoneLocked(src)
				}
			}
			p.migEarly = nil
			p.migMu.Unlock()
		}
	}
	p.epoch.Store(next)
	if prev != nil && prev.Contains(p.addr) {
		p.mu.Lock()
		if !p.closed {
			p.migOut.Add(1)
			p.wg.Add(1)
			go p.migrateOut(prev, next)
		}
		p.mu.Unlock()
	}
}

// MigrationsPending counts this proxy's unfinished migration work:
// outbound workers still streaming plus inbound streams not yet done.
func (p *Proxy) MigrationsPending() int64 {
	n := p.migOut.Load()
	prev := p.prevEpoch.Load()
	if prev == nil {
		return n
	}
	p.migMu.Lock()
	for _, m := range prev.Members() {
		if m.Addr != p.addr && !p.migFrom[m.Addr] {
			n++
		}
	}
	p.migMu.Unlock()
	return n
}

// markMigrationDone records a source proxy's done marker for version and
// closes the inbound window once every prev-epoch member has reported.
//
// The deployment installs an epoch on one proxy after another, and a
// source with nothing to stream sends its marker at once — so a marker
// can arrive for an epoch this proxy is about to install. It is kept
// for SetEpoch: dropped, the window it should have closed would stay
// open for good.
func (p *Proxy) markMigrationDone(version uint64, src string) {
	p.migMu.Lock()
	defer p.migMu.Unlock()
	switch {
	case version > p.migVer:
		if version != p.migEarlyV {
			p.migEarly, p.migEarlyV = nil, version
		}
		p.migEarly = append(p.migEarly, src)
	case version == p.migVer:
		p.markDoneLocked(src)
	}
}

// markDoneLocked is markMigrationDone for the installed epoch; the
// caller holds migMu.
func (p *Proxy) markDoneLocked(src string) {
	if p.migFrom == nil {
		return
	}
	p.migFrom[src] = true
	prev := p.prevEpoch.Load()
	if prev == nil {
		return
	}
	for _, m := range prev.Members() {
		if m.Addr != p.addr && !p.migFrom[m.Addr] {
			return
		}
	}
	p.prevEpoch.Store(nil)
	p.migFrom = nil
	p.tombs = nil
}

// noteTombstone records that key was deleted while the inbound window
// is open, so a migration SET arriving later must be refused.
func (p *Proxy) noteTombstone(key string) {
	p.migMu.Lock()
	if p.tombs != nil {
		p.tombs[key] = struct{}{}
	}
	p.migMu.Unlock()
}

// tombstoned reports whether key was deleted during the inbound window.
func (p *Proxy) tombstoned(key string) bool {
	p.migMu.Lock()
	defer p.migMu.Unlock()
	_, dead := p.tombs[key]
	return dead
}

// fallbackOwner resolves a local miss during the inbound window: if the
// key's previous-epoch owner has not finished streaming to us (and the
// key was not deleted meanwhile), the client should ask that owner
// directly. Returns the owner, the current epoch version, and whether a
// fallback applies.
func (p *Proxy) fallbackOwner(key string) (string, uint64, bool) {
	prev := p.prevEpoch.Load()
	if prev == nil {
		return "", 0, false
	}
	src := prev.Owner(routeKey(key))
	if src == "" || src == p.addr {
		return "", 0, false
	}
	p.migMu.Lock()
	defer p.migMu.Unlock()
	if p.migFrom == nil || p.migFrom[src] {
		return "", 0, false // the source finished; a miss here is authoritative
	}
	if _, dead := p.tombs[key]; dead {
		return "", 0, false
	}
	return src, p.epoch.Load().Version(), true
}

// queueDels distributes chunk deletions (an overwrite's, an eviction's,
// a dropped entry's) to the owning node managers.
func (p *Proxy) queueDels(dels []evictedChunk) {
	for _, d := range dels {
		if d.Node >= 0 && d.Node < len(p.nodes) {
			p.nodes[d.Node].queueDel(d.Key)
		}
	}
}

// migStream is one open connection to a destination proxy.
type migStream struct {
	conn  *protocol.Conn
	inbox <-chan *protocol.Message
}

// migrateOut streams every key whose ownership moved away from this
// proxy to its new owner, then sends a done marker to every other
// next-epoch member (even ones that received nothing — their inbound
// window is waiting on us). It rescans the table until a pass finds no
// new moved keys, closing the race with PUT generations whose chunks
// were in flight when the epoch was installed.
func (p *Proxy) migrateOut(prev, next *cluster.Epoch) {
	defer p.wg.Done()
	defer p.migOut.Add(-1)
	streams := make(map[string]*migStream)
	defer func() {
		for _, st := range streams {
			st.conn.Close()
		}
	}()
	ver := next.Version()
	open := func(addr string) *migStream {
		if st, ok := streams[addr]; ok {
			return st
		}
		raw, err := p.cfg.Dial(addr)
		if err != nil {
			return nil
		}
		conn := protocol.NewConn(raw)
		if err := conn.Send(&protocol.Message{
			Type: protocol.TJoin, Addr: p.addr, Args: []int64{int64(ver)},
		}); err != nil {
			conn.Close()
			return nil
		}
		st := &migStream{conn: conn, inbox: protocol.Pump(conn)}
		streams[addr] = st
		return st
	}

	// settled holds the keys no later pass needs to revisit. It is this
	// worker's alone: the deployment installs each epoch once per proxy
	// and SetEpoch ignores stale versions, so no other worker streams for
	// ver, and one still streaming an older epoch's moves is harmless —
	// the destination's copy wins, and a source drops only after acks.
	settled := make(map[string]bool)
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		migrated := 0
		for _, key := range p.table.Keys() {
			// Stripe entries route (and therefore move) with their
			// parent key, so a streamed object's whole family lands on
			// one destination.
			if settled[key] || prev.Owner(routeKey(key)) != p.addr {
				continue
			}
			dst := next.Owner(routeKey(key))
			if dst == "" || dst == p.addr {
				continue
			}
			member, ok := next.Member(dst)
			st := open(dst)
			if !ok || st == nil {
				// Can't reach the new owner: keep our copy (fallback
				// serving still covers reads) and let a later pass retry.
				continue
			}
			if p.migrateKey(st, member, key) {
				settled[key] = true
				migrated++
			}
			select {
			case <-p.done:
				return
			default:
			}
		}
		if migrated == 0 && pass > 0 {
			break
		}
	}

	// Done markers: every other next-epoch member is waiting on one.
	var wg sync.WaitGroup
	for _, m := range next.Members() {
		if m.Addr == p.addr {
			continue
		}
		st := open(m.Addr)
		if st == nil {
			continue
		}
		wg.Add(1)
		go func(st *migStream) {
			defer wg.Done()
			seq := p.nextSeq()
			if err := st.conn.Forward(protocol.TJoin, seq, "", p.addr, []int64{int64(ver), 1}, nil); err != nil {
				return
			}
			timeout := p.cfg.Clock.After(p.cfg.RequestTimeout)
			for {
				select {
				case m, ok := <-st.inbox:
					if !ok {
						return
					}
					match := m.Type == protocol.TAck && m.Seq == seq
					m.Free()
					if match {
						return
					}
				case <-timeout:
					return
				case <-p.done:
					return
				}
			}
		}(st)
	}
	wg.Wait()
}

// migrateKey streams one key's chunks to its new owner and, on full
// acknowledgement (or refusal — the destination's copy is newer), drops
// the local entry. Returns true when the key needs no further passes.
func (p *Proxy) migrateKey(st *migStream, dst cluster.Member, key string) bool {
	meta, ok := p.table.Lookup(key)
	if !ok {
		return true // deleted since the scan
	}
	// Gather at least d chunk payloads: the hot tier's resident copy is
	// the fast path (immutable, zero node traffic); otherwise fan out to
	// the nodes like a GET would.
	var chunks [][]byte
	var pooled []*protocol.Message
	if p.hot != nil {
		if e := p.hot.peek(key); e != nil && e.d == meta.DataShards && e.total == meta.TotalShards {
			chunks = e.chunks
		}
	}
	if chunks == nil {
		chunks, pooled = p.fetchChunks(&meta, key)
		if chunks == nil {
			// Mid-write or unfetchable right now: dropped from this
			// epoch's migration, once; the fallback path, or plain loss
			// handling, covers it.
			p.stats.MigrationDrops.Add(1)
			return true
		}
	}
	var totalBytes int64
	for _, c := range chunks {
		totalBytes += int64(len(c))
	}
	freePooled := func() {
		for _, m := range pooled {
			m.Free()
		}
	}
	if !p.migBucket.Wait(p.cfg.Clock, p.done, int(totalBytes)) {
		freePooled()
		return false // shutting down
	}

	// One pinned burst of migration SETs, then collect the acks.
	gen := p.migGen.Add(1)
	seqs := make(map[uint64]bool, len(chunks))
	st.conn.Pin()
	var args [11]int64
	// A multi-stripe head's stream geometry must survive the handoff,
	// or the destination could not plan ranged reads over the family.
	nargs := 9
	if meta.StreamSize > 0 {
		args[protocol.StreamArgSize] = meta.StreamSize
		args[protocol.StreamArgStripeData] = meta.StripeData
		nargs = 11
	}
	sendErr := false
	for i, c := range chunks {
		if c == nil {
			continue
		}
		seq := p.nextSeq()
		copy(args[:9], []int64{int64(i), int64(meta.TotalShards), destLambda(key, i, dst.PoolSize),
			meta.Size, int64(meta.DataShards), gen, 0, 1, protocol.ChunkSum(key, i, c)})
		if err := st.conn.Forward(protocol.TSet, seq, key, "", args[:nargs], c); err != nil {
			sendErr = true
			break
		}
		seqs[seq] = true
	}
	st.conn.Flush()
	freePooled()
	if sendErr {
		p.stats.MigrationDrops.Add(1)
		return true
	}

	allAcked, superseded := true, false
	timeout := p.cfg.Clock.After(p.cfg.RequestTimeout)
	for len(seqs) > 0 {
		select {
		case m, ok := <-st.inbox:
			if !ok {
				return true // stream died; keep the local copy
			}
			if seqs[m.Seq] {
				delete(seqs, m.Seq)
				if m.Type != protocol.TAck {
					allAcked = false
					if strings.Contains(string(m.Payload), migSupersededErr) {
						superseded = true
					}
				}
			}
			m.Free()
		case <-timeout:
			return true
		case <-p.done:
			return false
		}
	}
	if allAcked || superseded {
		// Handoff complete (or the destination already holds a newer
		// copy): drop ours. Drop also invalidates the hot tier, so a
		// redirect-then-refetch at the new owner can never race a stale
		// tier hit here.
		p.queueDels(p.table.Drop(key))
		if allAcked {
			p.stats.MigratedKeys.Add(1)
			p.stats.MigratedBytes.Add(totalBytes)
		} else {
			p.stats.MigrationDrops.Add(1)
		}
	}
	return true
}

// fetchChunks pulls key's present chunks off the nodes (the migration
// read path). Returns nil when fewer than d arrive — the caller skips
// the key. The second return holds the pooled node replies backing the
// chunk slices; the caller frees them after forwarding.
func (p *Proxy) fetchChunks(meta *objMeta, key string) ([][]byte, []*protocol.Message) {
	present := presentChunks(*meta)
	if len(present) < meta.DataShards {
		return nil, nil
	}
	replies := make(chan nodeReply, len(present)+1)
	bySeq := make(map[uint64]int, len(present))
	for _, idx := range present {
		seq := p.nextSeq()
		if p.nodes[meta.Chunks[idx].Node].submit(protocol.TGet, seq, ChunkKey(key, idx), nil, replies) {
			bySeq[seq] = idx
		}
	}
	submitted := len(bySeq)
	chunks := make([][]byte, meta.TotalShards)
	var pooled []*protocol.Message
	got := 0
	timeout := p.cfg.Clock.After(p.cfg.RequestTimeout)
	for i := 0; i < submitted; i++ {
		select {
		case r := <-replies:
			idx, mine := bySeq[r.Seq]
			if !mine || r.Msg == nil {
				if r.Msg != nil {
					r.Msg.Free()
				}
				continue
			}
			if r.Msg.Type == protocol.TData {
				if c := meta.Chunks[idx]; c.HasSum && protocol.ChunkSum(key, idx, r.Msg.Payload) != c.Sum {
					// Corrupt read-back: never migrate garbage. Strike
					// the chunk like the GET path would and drop it from
					// this pass; parity still covers the handoff if at
					// least d clean chunks arrive.
					p.strikeCorrupt(key, idx, meta.Epoch)
					r.Msg.Free()
					continue
				}
				chunks[idx] = r.Msg.Payload
				pooled = append(pooled, r.Msg)
				got++
			} else {
				r.Msg.Free()
			}
		case <-timeout:
			i = submitted // abandon stragglers; their replies fall to GC
		case <-p.done:
			i = submitted
		}
	}
	if got < meta.DataShards {
		for _, m := range pooled {
			m.Free()
		}
		return nil, nil
	}
	return chunks, pooled
}

// destLambda spreads a migrated key's chunks over the destination pool
// deterministically: consecutive chunk indices land on distinct nodes
// (mod pool), mirroring the client's no-repeat placement.
func destLambda(key string, idx, pool int) int64 {
	if pool <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64((h.Sum64() + uint64(idx)) % uint64(pool))
}
