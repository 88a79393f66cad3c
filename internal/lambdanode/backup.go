package lambdanode

import (
	"infinicache/internal/lambdaemu"
	"infinicache/internal/protocol"
)

// This file implements both ends of the delta-sync backup protocol of
// §4.2 (Figure 10). The source λs runs inside its current invocation
// after receiving BACKUP_CMD; the destination λd is a peer replica of the
// same function, spawned by λs invoking its own function name (the
// platform auto-scales because λs is busy).
//
// Relay-side roles are announced with a HELLO carrying Args[0]:
// 0 = source, 1 = destination.

const (
	relayRoleSource = 0
	relayRoleDest   = 1
)

// runBackupSource is steps 5-13 of Figure 10 from λs's perspective:
// connect to the relay, invoke the peer replica, stream metadata
// (MRU→LRU) and chunk data on demand, and keep serving any requests that
// λd forwards during the migration.
func runBackupSource(ctx *lambdaemu.Context, cfg Config, st *nodeState, relayAddr string) {
	raw, err := ctx.Dial(relayAddr)
	if err != nil {
		return
	}
	relay := protocol.NewConn(raw)
	defer relay.Close()
	if err := relay.Send(&protocol.Message{
		Type: protocol.THello, Key: ctx.InstanceID(), Args: []int64{relayRoleSource},
	}); err != nil {
		return
	}

	// Step 6: invoke a peer replica of ourselves as the destination,
	// passing connection info through the invocation parameters.
	pl := &Payload{
		Cmd:       CmdBackupDest,
		ProxyAddr: st.proxyAddr,
		RelayAddr: relayAddr,
		SourceID:  ctx.InstanceID(),
	}
	if err := ctx.Invoke(ctx.FunctionName(), pl.Encode()); err != nil {
		return
	}

	relayInbox := protocol.Pump(relay)
	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-st.inbox:
			// The proxy may still route requests here until λd takes
			// over (step 10); keep serving to preserve availability.
			if !ok {
				// Expected mid-backup: the proxy replaced us. Drop the
				// dead connection but keep serving the relay.
				st.conn.Close()
				st.conn = nil
				st.inbox = nil
				continue
			}
			handleMessage(ctx, cfg, st, msg)
		case msg, ok := <-relayInbox:
			if !ok {
				return // relay torn down; migration over or failed
			}
			switch msg.Type {
			case protocol.THello:
				// Step 11: destination asks for metadata; send chunk
				// keys hottest-first for prioritised migration.
				relay.Send(&protocol.Message{
					Type:    protocol.TMeta,
					Key:     ctx.InstanceID(),
					Payload: EncodeMeta(st.store.metaMRUFirst()),
				})
			case protocol.TGet, protocol.TSet:
				// λd's fetches, and the PUTs it forwards during migration
				// so both replicas stay in sync.
				serve(relay, st.store, ctx.FunctionName(), ctx.InstanceID(), msg)
			case protocol.TBye:
				// Migration complete.
				return
			}
		}
	}
}

// runBackupDest is λd's whole invocation: join the relay and the proxy,
// pull metadata then the delta of chunks it lacks, serve proxy requests
// during migration (forwarding unsynced keys to λs), and return.
func runBackupDest(ctx *lambdaemu.Context, cfg Config, st *nodeState, pl *Payload) {
	clock := ctx.Clock()
	raw, err := ctx.Dial(pl.RelayAddr)
	if err != nil {
		return
	}
	relay := protocol.NewConn(raw)
	defer relay.Close()
	if err := relay.Send(&protocol.Message{
		Type: protocol.THello, Key: ctx.InstanceID(), Args: []int64{relayRoleDest},
	}); err != nil {
		return
	}
	relayInbox := protocol.Pump(relay)

	// Step 9: connect to the proxy, replacing λs's connection there
	// (backup flag = 1 puts the proxy's state machine into Maybe).
	if err := ensureConn(ctx, st, pl.ProxyAddr, 1); err != nil {
		return
	}
	st.conn.Send(&protocol.Message{Type: protocol.TPong, Key: ctx.FunctionName(), Addr: ctx.InstanceID()})

	// Step 11: request metadata.
	if err := relay.Send(&protocol.Message{Type: protocol.THello, Key: ctx.InstanceID(), Args: []int64{relayRoleDest}}); err != nil {
		return
	}
	var pending []ChunkMeta
	metaDone := false
	for !metaDone {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-relayInbox:
			if !ok {
				return
			}
			if msg.Type == protocol.TMeta {
				keys, err := DecodeMeta(msg.Payload)
				if err != nil {
					return
				}
				// Delta-sync: only fetch what we don't already hold
				// from a previous backup round.
				for _, km := range keys {
					if !st.store.has(km.Key) {
						pending = append(pending, km)
					}
				}
				metaDone = true
			}
		}
	}

	// Migration state machine. Exactly one relay fetch is in flight at a
	// time (λs answers in order); the loop always stays responsive to
	// proxy traffic — in particular preflight PINGs — so the proxy never
	// concludes the node died mid-backup. Proxy GETs for keys that have
	// not migrated yet jump the queue ("forwards the request to λs,
	// responds to the proxy, and then caches the chunk"). A key the
	// proxy SETs or DELs here is newer than anything λs holds: it is
	// neither fetched nor overwritten by a fetch already in flight.
	var (
		relaySeq   uint64
		fetchSeq   uint64                             // seq of the in-flight fetch
		inFlight   string                             // key being fetched, "" if none
		replyTo    []*protocol.Message                // proxy GETs waiting on inFlight
		frontQueue []string                           // prioritised fetches (proxy demand)
		deferred   = map[string][]*protocol.Message{} // proxy GETs per queued key
		written    = map[string]bool{}                // keys the proxy SET or DEL
	)
	startFetch := func(key string) {
		relaySeq++
		fetchSeq = relaySeq
		inFlight = key
		relay.Forward(protocol.TGet, fetchSeq, key, "", nil, nil)
	}
	nextFetch := func() {
		for inFlight == "" {
			var key string
			switch {
			case len(frontQueue) > 0:
				key, frontQueue = frontQueue[0], frontQueue[1:]
			case len(pending) > 0:
				key, pending = pending[0].Key, pending[1:]
			default:
				return
			}
			if st.store.has(key) || written[key] {
				// Held already, or written by the proxy: the store
				// answers whoever waited on the fetch.
				for _, req := range deferred[key] {
					if st.conn != nil {
						serve(st.conn, st.store, ctx.FunctionName(), ctx.InstanceID(), req)
					}
				}
				delete(deferred, key)
				continue
			}
			startFetch(key)
			replyTo = deferred[key]
			delete(deferred, key)
		}
	}
	finishFetch := func(payload []byte, ok bool) {
		if written[inFlight] {
			payload, ok = st.store.get(inFlight) // the proxy's write is newer
		} else if ok {
			st.store.set(inFlight, payload) // store owns the buffer now
		}
		for _, req := range replyTo {
			if st.conn == nil {
				break
			}
			if ok {
				st.conn.Forward(protocol.TData, req.Seq, req.Key, "", nil, payload)
			} else {
				st.conn.Forward(protocol.TMiss, req.Seq, req.Key, "", nil, nil)
			}
		}
		inFlight, replyTo = "", nil
	}

	nextFetch()
	for {
		if inFlight == "" && len(frontQueue) == 0 && len(pending) == 0 {
			// Migration complete: release λs, tell the proxy we are
			// going idle, and finish the invocation.
			relay.Send(&protocol.Message{Type: protocol.TBye, Key: ctx.InstanceID()})
			if st.conn != nil {
				st.conn.Send(&protocol.Message{Type: protocol.TBackupDone, Key: ctx.FunctionName(), Addr: ctx.InstanceID()})
				st.conn.Send(&protocol.Message{Type: protocol.TBye, Key: ctx.FunctionName(), Addr: ctx.InstanceID()})
			}
			st.lastBackup = clock.Now()
			return
		}
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-st.inbox:
			if !ok {
				// Proxy replaced or dropped us; keep migrating so this
				// replica still ends up holding the data.
				st.conn.Close()
				st.conn = nil
				st.inbox = nil
				continue
			}
			if msg.Type == protocol.TSet || msg.Type == protocol.TDel {
				written[msg.Key] = true
			}
			if msg.Type == protocol.TGet && !st.store.has(msg.Key) && !written[msg.Key] {
				// Not migrated yet: answered when the relay fetch lands.
				if msg.Key == inFlight {
					replyTo = append(replyTo, msg)
				} else {
					deferred[msg.Key] = append(deferred[msg.Key], msg)
					frontQueue = append(frontQueue, msg.Key)
				}
			} else if serve(st.conn, st.store, ctx.FunctionName(), ctx.InstanceID(), msg) && msg.Type == protocol.TSet {
				// Stored locally; forward to λs too so both replicas hold
				// the new data (the ack from λs is skipped below). The
				// store owns the payload; the relay forward only borrows it.
				relaySeq++
				relay.Forward(protocol.TSet, relaySeq, msg.Key, "", nil, msg.Payload)
			}
			nextFetch()
		case msg, ok := <-relayInbox:
			if !ok {
				// λs vanished (reclaimed mid-backup). Fail outstanding
				// proxy waits and finish with whatever migrated.
				finishFetch(nil, false)
				for key, reqs := range deferred {
					for _, req := range reqs {
						if st.conn != nil {
							st.conn.Forward(protocol.TMiss, req.Seq, req.Key, "", nil, nil)
						}
					}
					delete(deferred, key)
				}
				if st.conn != nil {
					st.conn.Send(&protocol.Message{Type: protocol.TBackupDone, Key: ctx.FunctionName(), Addr: ctx.InstanceID()})
					st.conn.Send(&protocol.Message{Type: protocol.TBye, Key: ctx.FunctionName(), Addr: ctx.InstanceID()})
				}
				st.lastBackup = clock.Now()
				return
			}
			switch msg.Type {
			case protocol.TData:
				if inFlight != "" && msg.Seq == fetchSeq {
					finishFetch(msg.Payload, true)
				}
			case protocol.TMiss:
				if inFlight != "" && msg.Seq == fetchSeq {
					finishFetch(nil, false)
				}
			case protocol.TAck:
				// λs acknowledging a forwarded SET; nothing to do.
			}
			nextFetch()
		}
	}
}
