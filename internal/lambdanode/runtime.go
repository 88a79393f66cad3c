package lambdanode

import (
	"time"

	"infinicache/internal/lambdaemu"
	"infinicache/internal/protocol"
)

// Config parameterises the runtime behaviour of every cache node.
type Config struct {
	// BackupInterval is T_bak (§4.2); 0 disables the delta-sync backup.
	BackupInterval time.Duration
	// BufferTime is how long before a 100 ms billing-cycle boundary the
	// node returns ("2-10 ms", §3.3). Default 5 ms.
	BufferTime time.Duration
}

// extendThreshold is the request count within one billing cycle that
// makes the node anticipate more traffic and stay for another cycle
// ("more than one request", §3.3).
const extendThreshold = 2

func (c *Config) fillDefaults() {
	if c.BufferTime == 0 {
		c.BufferTime = 5 * time.Millisecond
	}
}

// nodeState is the warm in-memory state an instance keeps between
// invocations: the chunk store, the persistent proxy connection, and the
// backup bookkeeping.
type nodeState struct {
	store      *store
	conn       *protocol.Conn
	inbox      <-chan *protocol.Message
	proxyAddr  string
	lastBackup time.Time
}

const localsKey = "infinicache.nodeState"

func getState(ctx *lambdaemu.Context) *nodeState {
	if st, ok := ctx.Locals()[localsKey].(*nodeState); ok {
		return st
	}
	st := &nodeState{store: newStore()}
	ctx.Locals()[localsKey] = st
	return st
}

// NewHandler returns the Lambda handler implementing the cache-node
// runtime. Register the same handler for every cache-node function.
func NewHandler(cfg Config) lambdaemu.Handler {
	cfg.fillDefaults()
	return func(ctx *lambdaemu.Context, raw []byte) {
		pl, err := DecodePayload(raw)
		if err != nil {
			return // malformed invocation; nothing useful to do
		}
		st := getState(ctx)
		switch pl.Cmd {
		case CmdBackupDest:
			runBackupDest(ctx, cfg, st, pl)
		default:
			runServe(ctx, cfg, st, pl)
		}
	}
}

// ensureConn (re)establishes the persistent connection to the proxy and
// announces the node with JOIN_LAMBDA (+PONG follows from callers). The
// backupFlag is 1 when this connection replaces a source node during
// backup (step 9 of Figure 10).
func ensureConn(ctx *lambdaemu.Context, st *nodeState, proxyAddr string, backupFlag int64) error {
	if st.conn != nil && !st.conn.Dead() && st.proxyAddr == proxyAddr && backupFlag == 0 {
		return nil
	}
	if st.conn != nil {
		st.conn.Close()
	}
	raw, err := ctx.Dial(proxyAddr)
	if err != nil {
		st.conn = nil
		return err
	}
	c := protocol.NewConn(raw)
	join := &protocol.Message{
		Type: protocol.TJoinLambda,
		Key:  ctx.FunctionName(),
		Addr: ctx.InstanceID(),
		Args: []int64{int64(ctx.MemoryMB()), backupFlag},
	}
	if err := c.Send(join); err != nil {
		c.Close()
		st.conn = nil
		return err
	}
	st.conn = c
	st.inbox = protocol.Pump(c)
	st.proxyAddr = proxyAddr
	return nil
}

// runServe is the normal invocation path (Figure 7): connect/PONG, serve
// chunk requests, and control the billed duration so the function
// returns just before a 100 ms boundary unless traffic justifies staying.
func runServe(ctx *lambdaemu.Context, cfg Config, st *nodeState, pl *Payload) {
	clock := ctx.Clock()
	// Billing cycles are measured from invocation start, so the timer
	// must be anchored before connection setup eats into the cycle.
	invokeStart := clock.Now()
	if err := ensureConn(ctx, st, pl.ProxyAddr, 0); err != nil {
		return
	}
	// Step 3/8: announce liveness.
	pong := &protocol.Message{Type: protocol.TPong, Key: ctx.FunctionName(), Addr: ctx.InstanceID()}
	if err := st.conn.Send(pong); err != nil {
		st.conn.Close()
		st.conn = nil
		return
	}

	// Periodic delta-sync backup (§4.2): piggy-backed on an invocation
	// once T_bak has elapsed. Warm-up invocations may therefore run
	// longer — exactly the cost effect Figure 13 describes.
	if cfg.BackupInterval > 0 && st.store.len() > 0 {
		if st.lastBackup.IsZero() {
			// First invocation with data: start the T_bak clock now.
			st.lastBackup = clock.Now()
		} else if clock.Since(st.lastBackup) >= cfg.BackupInterval {
			if err := st.conn.Send(&protocol.Message{Type: protocol.TInitBackup, Key: ctx.FunctionName()}); err == nil {
				// The serve loop below handles the BACKUP_CMD reply.
				st.lastBackup = clock.Now()
			}
		}
	}

	hardStop := invokeStart.Add(lambdaemu.DefaultFunctionTimeout) // Lambda's 900 s cap
	cycleEnd := invokeStart.Add(lambdaemu.BillingCycle)
	reqsThisCycle := 0

	realign := func() {
		// "adjusts the timer to align it with the ending of the current
		// billing cycle" (§3.3).
		elapsed := clock.Since(invokeStart)
		aligned := lambdaemu.CeilBillingCycle(elapsed)
		if aligned <= elapsed {
			aligned += lambdaemu.BillingCycle
		}
		cycleEnd = invokeStart.Add(aligned)
	}

	for {
		deadline := cycleEnd.Add(-cfg.BufferTime)
		if deadline.After(hardStop) {
			deadline = hardStop
		}
		wait := deadline.Sub(clock.Now())
		select {
		case <-ctx.Done():
			// Reclaimed mid-run: state is gone; nothing to say.
			return
		case msg, ok := <-st.inbox:
			if !ok {
				// Proxy hung up (or our connection was replaced after a
				// backup, step 10). Drop the conn; the next invocation
				// redials.
				st.conn.Close()
				st.conn = nil
				return
			}
			// The proxy dispatcher pipelines whole windows down this
			// connection; handle everything already queued under one Pin
			// so the batch's replies coalesce into one flush. The drain
			// is non-blocking, keeping the billed-duration timer live.
			conn := st.conn
			conn.Pin()
			served := 0
			if handleMessage(ctx, cfg, st, msg) {
				served++
			}
		drain:
			for st.conn == conn && !conn.Dead() {
				select {
				case msg, ok = <-st.inbox:
					if !ok {
						break drain
					}
					if handleMessage(ctx, cfg, st, msg) {
						served++
					}
				default:
					break drain
				}
			}
			conn.Flush()
			if served > 0 {
				reqsThisCycle += served
				realign()
			}
			if !ok {
				// Inbox closed mid-drain: same hangup handling as above.
				if st.conn != nil {
					st.conn.Close()
					st.conn = nil
				}
				return
			}
			if st.conn == nil || st.conn.Dead() {
				// A backup handed our connection to the peer replica
				// (or the proxy hung up); this invocation is over.
				return
			}
		case <-clock.After(wait):
			if !clock.Now().Before(hardStop) {
				// Hard Lambda timeout: forcibly returned, no BYE.
				return
			}
			if reqsThisCycle >= extendThreshold {
				// Anticipate more traffic: buy one more billing cycle.
				cycleEnd = cycleEnd.Add(lambdaemu.BillingCycle)
				reqsThisCycle = 0
				continue
			}
			// Step 13: say goodbye and return before the cycle ends.
			st.conn.Send(&protocol.Message{Type: protocol.TBye, Key: ctx.FunctionName(), Addr: ctx.InstanceID()})
			return
		}
	}
}

// handleMessage processes one proxy message; it reports whether the
// message was a billable chunk request (GET/SET).
func handleMessage(ctx *lambdaemu.Context, cfg Config, st *nodeState, msg *protocol.Message) bool {
	if msg.Type == protocol.TBackupCmd {
		// Step 4: the proxy set up a relay; run the source side inline.
		runBackupSource(ctx, cfg, st, msg.Addr)
		return false
	}
	return serve(st.conn, st.store, ctx.FunctionName(), ctx.InstanceID(), msg)
}

// serve is the one code path that answers a PING, GET, SET or DEL from a
// chunk store — the runtime's, on its proxy and relay connections, and
// WarmPool's. It reports whether msg was a billable chunk request
// (GET/SET) and ignores every other type. Replies go out via
// Conn.Forward — a rewritten header around a borrowed payload — so the
// per-chunk reply path allocates no Message: a GET's DATA frame wraps
// the store's own buffer, and a SET's payload moves from the wire into
// the store without a copy (the store owns it from then on).
func serve(conn *protocol.Conn, s *store, name, instance string, msg *protocol.Message) bool {
	switch msg.Type {
	case protocol.TPing:
		// Preflight (§3.3): reply immediately; the caller realigns the
		// timer when the subsequent request is served.
		conn.Forward(protocol.TPong, msg.Seq, name, instance, nil, nil)
	case protocol.TGet:
		if b, ok := s.get(msg.Key); ok {
			conn.Forward(protocol.TData, msg.Seq, msg.Key, "", nil, b)
		} else {
			conn.Forward(protocol.TMiss, msg.Seq, msg.Key, "", nil, nil)
		}
		return true
	case protocol.TSet:
		s.set(msg.Key, msg.Payload)
		conn.Forward(protocol.TAck, msg.Seq, msg.Key, "", nil, nil)
		return true
	case protocol.TDel:
		s.del(msg.Key)
		conn.Forward(protocol.TAck, msg.Seq, msg.Key, "", nil, nil)
	}
	return false
}
