package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"infinicache/internal/lambdanode"
	"infinicache/internal/protocol"
)

// nodeState labels from Figure 6: a connection is Sleeping (node not
// running), Active (node running), or Maybe (a backup destination has
// replaced the source; the source's fate is ignored).
type nodeState int

const (
	stateSleeping nodeState = iota
	stateActive
	stateMaybe
)

func (s nodeState) String() string {
	switch s {
	case stateSleeping:
		return "Sleeping"
	case stateActive:
		return "Active"
	case stateMaybe:
		return "Maybe"
	}
	return "?"
}

// maxInflight caps how many chunk requests ride one node connection at
// a time; excess requests wait in the dispatch queue. The window exists
// to bound per-connection memory, not to pace the node — a Lambda
// answers requests in arrival order off one socket either way.
const maxInflight = 512

// joinedConn is an inbound Lambda connection handed from the accept loop
// to the node's manager.
type joinedConn struct {
	conn       *protocol.Conn
	instanceID string
	backup     bool // JOIN carried the backup flag (Figure 10 step 9)
}

// nodeRequest is one chunk operation (GET/SET/DEL) bound for a node.
// nodeReply is the outcome of one submitted request. Msg is the node's
// response — ownership of its pooled payload passes to the receiver —
// or nil after exhausted retries. Seq echoes the request's sequence
// number so a receiver multiplexing many requests over one channel can
// correlate even a nil outcome.
type nodeReply struct {
	Seq uint64
	Msg *protocol.Message
}

// pending tracks one request through the dispatcher: queued (deadline
// zero) or in flight on the current connection.
//
// Attempts are charged on timeout-shaped failures — an unanswered
// request, an expired validation round, a send or invoke error — the
// events that in the lock-step design each consumed one of the
// request's validate/send/await rounds. Re-drives caused by the node's
// normal rhythm (a BYE at a billing-cycle boundary, a backup
// connection swap) are free: under backup churn several can hit within
// a millisecond, and burning the retry budget on them would fail
// requests the next invocation serves happily. The overall `expire`
// budget — the same Retries × RequestTimeout a lock-step request could
// wait in the worst case — bounds those free re-drives so a request
// can never bounce forever.
type pending struct {
	// The request frame, held as raw fields rather than a Message so
	// submission allocates exactly one object; node-bound chunk
	// requests never carry addr or args.
	typ     protocol.Type
	seq     uint64
	key     string
	payload []byte
	respCh  chan<- nodeReply

	attempt  int
	deadline time.Time // response deadline once sent; zero while queued
	expire   time.Time // op-level budget; the request fails past this

	// sending marks the span in which pump is inside Forward with this
	// request's frame, i.e. still reading payload. A reply can arrive
	// that early: a re-driven request (BYE, timeout, backup swap) goes
	// out a second time, and the node's next life answers the first
	// copy it had buffered. Delivering that reply hands payload back to
	// the submitter, who recycles it — under Forward, which would then
	// ship whatever the buffer's next owner writes as a duplicate SET
	// that lands after the good one. So the reader parks such a reply in
	// early and pump delivers it once Forward has returned. Both fields
	// are guarded by nodeManager.mu.
	sending bool
	early   *protocol.Message
}

// nodeManager owns all interaction with one Lambda cache node: the
// single persistent connection, the Figure 6 state machine, the
// pipelined request window, re-invocation on timeout, and backup
// coordination.
//
// Requests are dispatched as a window of in-flight messages keyed by
// sequence number rather than one lock-step request/response at a time,
// and the §3.3 preflight validation is amortised to once per busy
// period: a PING round trip happens only on the Sleeping→Active edge
// (implicitly, via the invoked node's PONG), after a BYE, after an
// unanswered request demotes the connection, or after a connection
// swap — never per message.
type nodeManager struct {
	p    *Proxy
	idx  int
	name string

	reqCh    chan *pending
	connCh   chan *joinedConn
	delCh    chan string   // chunk keys to delete lazily (eviction)
	cancelCh chan uint64   // seqs of abandoned requests (client CANCEL)
	kickCh   chan struct{} // reader -> loop: a response freed window space
	warmCh   chan struct{} // Proxy.Warmup -> loop: T_warm tick
	queued   atomic.Int32  // len(queue) snapshot, published each loop turn
	// load counts requests submitted and not yet answered — queued plus
	// in flight — for placement to pick the least loaded node.
	load atomic.Int32

	// stateMirror publishes the current state to readers outside the
	// loop (State): placement, which moves a chunk SET off a sleeping
	// node, and the dispatcher tests, which assert the Figure 6 state.
	stateMirror atomic.Int32
	// connMirror shadows the loop-local conn for observers that need to
	// sever it from outside the loop (the chaos plane's proxy-crash
	// fault); the loop goroutine remains the only writer.
	connMirror atomic.Pointer[protocol.Conn]

	// Loop-local state (only the run goroutine touches these).
	conn        *protocol.Conn
	inbox       <-chan *protocol.Message
	state       nodeState
	validated   bool
	validating  bool      // a PONG is owed (preflight PING or fresh invoke/join)
	valInvoke   bool      // the awaited PONG belongs to an invocation, not a PING
	valDeadline time.Time // when the validation wait expires
	instanceID  string
	queue       []*pending // waiting for a validated connection
	pendingDel  []string

	// The in-flight window is shared between the run loop (sends,
	// re-drives, expiry, cancels) and the connection's reader goroutine,
	// which matches chunk responses by seq and delivers them straight to
	// the submitter — the dispatcher never wakes for a response. mu
	// guards this map and its entries' sending/early; whoever deletes an
	// entry owns its pending.
	mu       sync.Mutex
	inflight map[uint64]*pending // sent, awaiting response, keyed by seq

	// sendOrder records (seq, deadline) in send order. Deadlines are
	// assigned from a monotonic clock with a fixed timeout, so the
	// earliest live deadline is always at the front — expiry checks and
	// timer arming cost O(1) amortised instead of scanning the window
	// on every inbound frame. Entries whose request completed (or was
	// re-driven under a fresh deadline) are skipped lazily. The front is
	// sendOrder[sendHead]; popSent advances it.
	sendOrder []sentMark
	sendHead  int
	timerC    <-chan time.Time // armed timer, nil when none
	timerAt   time.Time        // deadline timerC is armed for
}

// sentMark is one send instance; the deadline disambiguates a seq that
// was re-driven (same seq, new deadline) from its stale entry.
type sentMark struct {
	seq      uint64
	deadline time.Time
}

// setState updates both the loop-local state and the published mirror.
func (nm *nodeManager) setState(s nodeState) {
	nm.state = s
	nm.stateMirror.Store(int32(s))
}

// State returns the last published connection state.
func (nm *nodeManager) State() nodeState {
	return nodeState(nm.stateMirror.Load())
}

// nodeManagers is a proxy's node pool, indexed like its mapping table;
// placement reads it as nodeStates. A node is awake unless its state is
// Sleeping: Active and Maybe both have a running instance serving.
type nodeManagers []*nodeManager

func (ns nodeManagers) awake(i int) bool { return ns[i].State() != stateSleeping }
func (ns nodeManagers) load(i int) int   { return int(ns[i].load.Load()) }

func newNodeManager(p *Proxy, idx int, name string) *nodeManager {
	return &nodeManager{
		p:        p,
		idx:      idx,
		name:     name,
		reqCh:    make(chan *pending, 1024),
		connCh:   make(chan *joinedConn, 8),
		delCh:    make(chan string, 4096),
		cancelCh: make(chan uint64, 1024),
		kickCh:   make(chan struct{}, 1),
		warmCh:   make(chan struct{}, 1),
		inflight: make(map[uint64]*pending),
	}
}

// submit enqueues one chunk request (GET/SET/DEL by type, key and
// optional payload) with the dispatcher. Exactly one nodeReply echoing
// seq is later delivered on respCh (Msg nil = failed), which must have
// spare capacity when the reply arrives — the dispatcher never blocks
// on delivery. Returns false if the proxy is shutting down (no reply
// will come). The payload is borrowed until the reply is delivered;
// the caller must not recycle it before then.
func (nm *nodeManager) submit(typ protocol.Type, seq uint64, key string, payload []byte, respCh chan<- nodeReply) bool {
	nm.load.Add(1)
	select {
	case nm.reqCh <- &pending{typ: typ, seq: seq, key: key, payload: payload, respCh: respCh}:
		return true
	case <-nm.p.done:
		nm.load.Add(-1)
		return false
	}
}

// cancel withdraws an abandoned request from the dispatcher (the
// client CANCELled it): its queue entry or in-flight window slot is
// released and a nil outcome is delivered so the submitter's
// accounting still balances. Best effort — on a full channel the
// request simply runs to completion and its response is handled
// normally.
func (nm *nodeManager) cancel(seq uint64) {
	select {
	case nm.cancelCh <- seq:
	default:
	}
}

// cancelReq runs in the dispatcher loop: it frees the window slot (or
// queue entry) held by seq. A response that still arrives from the node
// is dropped as stale by the reader.
func (nm *nodeManager) cancelReq(seq uint64) {
	if pr, ok := nm.takeInflight(seq); ok {
		// sendOrder entry goes stale; skipped lazily.
		nm.deliver(pr, nil)
		return
	}
	for i, pr := range nm.queue {
		if pr.seq == seq {
			nm.queue = append(nm.queue[:i], nm.queue[i+1:]...)
			nm.deliver(pr, nil)
			return
		}
	}
}

// takeInflight removes and returns seq's window entry; the caller that
// wins the removal owns the pending exclusively.
func (nm *nodeManager) takeInflight(seq uint64) (*pending, bool) {
	nm.mu.Lock()
	pr, ok := nm.inflight[seq]
	if ok {
		delete(nm.inflight, seq)
	}
	nm.mu.Unlock()
	return pr, ok
}

// takeForReply is the reader's takeInflight: it wins the entry m
// answers unless pump is still sending that entry's frame, in which
// case m is parked on the entry for pump to deliver (see
// pending.sending) and nothing is returned. A reply that finds no
// entry, or one already holding a parked reply, is stale: the reader
// recycles it.
func (nm *nodeManager) takeForReply(m *protocol.Message) (pr *pending, parked bool) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	pr, ok := nm.inflight[m.Seq]
	switch {
	case !ok:
		return nil, false
	case !pr.sending:
		delete(nm.inflight, m.Seq)
		return pr, false
	case pr.early == nil:
		pr.early = m
		return nil, true
	}
	return nil, false
}

// startReader launches conn's read goroutine: chunk responses are
// matched against the in-flight window and delivered straight to their
// submitters — the dispatcher loop never wakes for them — while
// control traffic (PONG, BYE, backup coordination) flows to the
// returned channel. The channel closes when the connection dies;
// stranded control frames are recycled, and a dispatcher that already
// moved on (closing the conn) unblocks a full-channel send.
func (nm *nodeManager) startReader(conn *protocol.Conn) <-chan *protocol.Message {
	ctrl := make(chan *protocol.Message, 64)
	go func() {
		defer func() {
			close(ctrl)
			for {
				m, ok := <-ctrl
				if !ok {
					return
				}
				m.Recycle()
			}
		}()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case protocol.TData, protocol.TMiss, protocol.TAck, protocol.TErr:
				if pr, parked := nm.takeForReply(m); pr != nil {
					nm.deliver(pr, m)
					// The freed window slot is the only send opportunity
					// the loop would otherwise miss (responses no longer
					// pass through it): if requests are waiting, kick it
					// so pump() refills the window now, not at the next
					// timeout.
					if nm.queued.Load() > 0 {
						select {
						case nm.kickCh <- struct{}{}:
						default:
						}
					}
				} else if !parked {
					// Stale response (post-timeout straggler, cancelled
					// request, or an eviction DEL's ack); recycle its
					// payload rather than leaking it from the pool.
					m.Recycle()
				}
			default:
				select {
				case ctrl <- m:
				case <-conn.Done():
					m.Recycle()
					return
				}
			}
		}
	}()
	return ctrl
}

// queueDel registers a chunk deletion to be flushed opportunistically
// the next time the node is awake (evictions must not wake — and bill —
// a sleeping Lambda).
func (nm *nodeManager) queueDel(chunkKey string) {
	select {
	case nm.delCh <- chunkKey:
	default:
		// Drop on overflow: the node's copy becomes garbage that dies
		// with the instance; proxy accounting is already updated.
	}
}

// run is the dispatcher loop: a single goroutine multiplexing request
// submissions, node traffic, connection swaps, and timeouts over the
// in-flight window.
func (nm *nodeManager) run() {
	defer nm.p.wg.Done()
	for {
		timerC := nm.expireAndArm()
		inbox := nm.inbox // nil channel blocks forever when disconnected
		select {
		case <-nm.p.done:
			if nm.conn != nil {
				nm.conn.Close()
			}
			return
		case j := <-nm.connCh:
			nm.adopt(j)
		case m, ok := <-inbox:
			if !ok {
				nm.dropConn()
			} else {
				nm.handleMessage(m)
			}
		case seq := <-nm.cancelCh:
			nm.cancelReq(seq)
		case <-nm.kickCh:
			// Window space freed by the reader; pump() below refills it.
		case <-nm.warmCh:
			nm.warmup()
		case pr := <-nm.reqCh:
			nm.enqueue(pr)
			// Drain whatever arrived with it so one validated pump sends
			// the whole batch down the pipe.
		drain:
			for {
				select {
				case pr := <-nm.reqCh:
					nm.enqueue(pr)
				default:
					break drain
				}
			}
		case <-timerC:
			// Consumed; expireAndArm at the top of the next iteration
			// does the actual expiry work and re-arms.
			nm.timerC, nm.timerAt = nil, time.Time{}
		}
		nm.pump()
		nm.queued.Store(int32(len(nm.queue)))
	}
}

func (nm *nodeManager) enqueue(pr *pending) {
	budget := time.Duration(nm.p.cfg.Retries) * nm.p.cfg.RequestTimeout
	pr.expire = nm.p.cfg.Clock.Now().Add(budget)
	nm.queue = append(nm.queue, pr)
}

// deliver hands the outcome to the submitter. respCh is contractually
// buffered; if the receiver vanished anyway, recycle rather than leak
// the pooled payload.
func (nm *nodeManager) deliver(pr *pending, m *protocol.Message) {
	nm.load.Add(-1)
	select {
	case pr.respCh <- nodeReply{Seq: pr.seq, Msg: m}:
	default:
		if m != nil {
			m.Recycle()
		}
	}
}

// retryOrFail re-drives one request — charging an attempt when charge
// is set — or delivers failure once the retry budget (attempts or the
// op-level deadline) is spent.
func (nm *nodeManager) retryOrFail(pr *pending, charge bool) {
	if charge {
		pr.attempt++
	}
	pr.deadline = time.Time{}
	if pr.attempt >= nm.p.cfg.Retries || !nm.p.cfg.Clock.Now().Before(pr.expire) {
		nm.p.stats.ChunkFailures.Add(1)
		nm.deliver(pr, nil)
		return
	}
	nm.p.stats.Reinvokes.Add(1)
	nm.queue = append(nm.queue, pr)
}

// requeueInflight pulls the whole in-flight window back into the queue
// for a re-drive (connection swap, BYE, or disconnect — free; the op
// budget still bounds them). Entries the reader delivers concurrently
// are simply not in the snapshot: answered is answered.
func (nm *nodeManager) requeueInflight() {
	nm.mu.Lock()
	prs := make([]*pending, 0, len(nm.inflight))
	for seq, pr := range nm.inflight {
		delete(nm.inflight, seq)
		prs = append(prs, pr)
	}
	nm.mu.Unlock()
	for _, pr := range prs {
		nm.retryOrFail(pr, false)
	}
}

// chargeQueued charges one attempt against every queued request
// (a validation round failed before anything could be sent).
func (nm *nodeManager) chargeQueued() {
	q := nm.queue
	nm.queue = nil
	for _, pr := range q {
		nm.retryOrFail(pr, true)
	}
}

// adopt installs a (re)joined connection, closing any previous one —
// for backup joins this is exactly step 10 of Figure 10: the proxy
// disconnects from λs, making λd the node's only active connection.
// The old connection's in-flight window is re-driven on the new one.
//
// While a migration is in flight (Maybe) a plain rejoin from the source
// must NOT displace the destination: severing λd mid-migration would
// leave a partial replica that later denies chunks it was supposed to
// hold. The source's connection is refused; it will redial on its next
// invocation, after Maybe ends.
func (nm *nodeManager) adopt(j *joinedConn) {
	if nm.state == stateMaybe && !j.backup && nm.conn != nil && !nm.conn.Dead() {
		j.conn.Close()
		return
	}
	if nm.conn != nil {
		nm.conn.Close()
	}
	nm.requeueInflight()
	nm.conn = j.conn
	nm.connMirror.Store(j.conn)
	nm.inbox = nm.startReader(j.conn)
	nm.instanceID = j.instanceID
	// The joining node's PONG follows its JOIN immediately (Figure 7
	// steps 3/8); wait for it instead of spending a PING round trip.
	nm.validated = false
	nm.validating = true
	nm.valInvoke = false
	nm.valDeadline = nm.p.cfg.Clock.Now().Add(nm.p.cfg.PingTimeout)
	if j.backup {
		nm.setState(stateMaybe)
	} else {
		nm.setState(stateActive)
	}
}

func (nm *nodeManager) dropConn() {
	if nm.conn != nil {
		nm.conn.Close()
	}
	nm.conn = nil
	nm.connMirror.Store(nil)
	nm.inbox = nil
	nm.lifeOver()
}

// lifeOver records that the node's current life has ended — it said BYE,
// or its connection died: the node is asleep, nothing in flight will be
// answered by that life, and the window is re-driven through the next.
//
// A validation wait ends with it, unless it is an invoke wait. A BYE or
// a dead connection during an invoke wait belongs to the previous life
// (a goodbye, or a reclaimed instance) racing our invocation, whose
// JOIN and PONG are still coming. Ending the wait would invoke again,
// and that call queues behind the running invocation — inside the
// platform, on this goroutine — until it returns unserved; every round
// after it repeats that.
func (nm *nodeManager) lifeOver() {
	nm.setState(stateSleeping)
	nm.validated = false
	if !nm.valInvoke {
		nm.validating = false
	}
	nm.requeueInflight()
}

// handleMessage processes one control frame from the node (chunk
// responses never arrive here — the reader goroutine matches and
// delivers them directly).
func (nm *nodeManager) handleMessage(m *protocol.Message) {
	switch m.Type {
	case protocol.TPong:
		nm.validated = true
		nm.validating = false
		if nm.state == stateSleeping {
			nm.setState(stateActive)
		}
	case protocol.TBye:
		// Node returned; connection stays open for its next life. A BYE
		// in Maybe also ends the backup takeover window.
		nm.lifeOver()
	case protocol.TInitBackup:
		nm.startBackup()
	case protocol.TBackupDone:
		nm.p.stats.BackupsDone.Add(1)
	default:
		m.Recycle() // stray frame; consume its payload
	}
}

// pump drives the state machine toward "validated connection, window
// full": it triggers invocation or preflight as the state demands and
// sends every queued request the window can hold.
func (nm *nodeManager) pump() {
	if len(nm.queue) == 0 || nm.validating {
		return
	}
	if nm.conn == nil || nm.state == stateSleeping {
		nm.startInvoke()
		return
	}
	if !nm.validated {
		nm.startPing()
		return
	}
	// The whole window drain — queued dels plus every request the window
	// can hold — rides one Pin/Flush: a re-driven window or a batch of
	// submissions reaches the node in one write instead of one per frame.
	conn := nm.conn
	conn.Pin()
	nm.flushDels()
	now := nm.p.cfg.Clock.Now()
	sent := 0
	for sent < len(nm.queue) && nm.inflightLen() < maxInflight {
		pr := nm.queue[sent]
		sent++
		// Publish the window entry BEFORE the frame can reach the wire:
		// the reader matches responses by seq, and a node replying to a
		// frame whose entry is not yet visible would drop the response
		// as stale.
		pr.deadline = now.Add(nm.p.cfg.RequestTimeout)
		nm.mu.Lock()
		pr.sending = true
		nm.inflight[pr.seq] = pr
		nm.mu.Unlock()
		err := conn.Forward(pr.typ, pr.seq, pr.key, "", nil, pr.payload)
		nm.mu.Lock()
		pr.sending = false
		early := pr.early
		if early != nil {
			pr.early = nil
			delete(nm.inflight, pr.seq)
		}
		nm.mu.Unlock()
		if early != nil {
			// Answered before the frame was out (see pending.sending):
			// the request is done, whatever became of this copy of it.
			nm.deliver(pr, early)
		}
		if err != nil {
			nm.dequeue(sent)
			conn.Flush()
			if _, ok := nm.takeInflight(pr.seq); ok {
				nm.retryOrFail(pr, true)
			}
			nm.dropConn() // also re-drives the window
			nm.pump()     // immediately start the re-invoke round
			return
		}
		nm.sendOrder = append(nm.sendOrder, sentMark{seq: pr.seq, deadline: pr.deadline})
	}
	nm.dequeue(sent)
	if err := conn.Flush(); err != nil {
		// The staged window never reached the wire; re-drive it through
		// a fresh connection instead of letting every request wait out
		// its response deadline (and get charged an attempt) for a local
		// write failure.
		nm.dropConn()
		nm.pump()
	}
}

// dequeue drops the first n queued requests, sliding the rest to the
// front: the backing array is kept, so the next busy period's enqueue
// does not reallocate it.
func (nm *nodeManager) dequeue(n int) {
	rest := copy(nm.queue, nm.queue[n:])
	clear(nm.queue[rest:])
	nm.queue = nm.queue[:rest]
}

// popSent drops sendOrder's front entry. The live tail slides to the
// front once at least half the array is consumed — amortised O(1), and
// pump's append keeps reusing the same backing array.
func (nm *nodeManager) popSent() {
	nm.sendHead++
	if nm.sendHead*2 >= len(nm.sendOrder) {
		nm.sendOrder = nm.sendOrder[:copy(nm.sendOrder, nm.sendOrder[nm.sendHead:])]
		nm.sendHead = 0
	}
}

func (nm *nodeManager) inflightLen() int {
	nm.mu.Lock()
	n := len(nm.inflight)
	nm.mu.Unlock()
	return n
}

// startInvoke asks the platform to run the node and opens the
// validation wait for its post-join PONG. A synchronous invoke error
// charges an attempt against everything queued and tries again until
// retries are exhausted.
func (nm *nodeManager) startInvoke() {
	for len(nm.queue) > 0 && !nm.invoke(lambdanode.CmdRequest) {
		nm.chargeQueued()
	}
}

// invoke asks the platform to run the node with cmd and, if it took the
// call, opens the invoke wait for the instance's post-join PONG.
func (nm *nodeManager) invoke(cmd string) bool {
	if err := nm.p.invokeNode(nm.name, cmd); err != nil {
		return false
	}
	nm.validating = true
	nm.valInvoke = true
	nm.valDeadline = nm.p.cfg.Clock.Now().Add(nm.p.cfg.InvokeTimeout)
	return true
}

// warmup is the T_warm keep-alive of §4.2 for this node: invoke it if it
// is asleep. It runs on the dispatcher, as an invocation the dispatcher
// waits on like any other, because one it does not know about is one it
// will invoke on top of: a request that finds the node "Sleeping" in
// the middle of an untracked warm-up invokes again, that call queues
// behind the warm-up inside the platform on this goroutine, and past
// the platform's scale-out delay it comes back with a fresh, empty
// replica that joins in place of the instance holding the chunks.
// Requests arriving during the wait queue up and ride the warmed
// instance's PONG. A node that is running, or already being invoked,
// needs no warming.
func (nm *nodeManager) warmup() {
	if nm.state == stateSleeping && !nm.validating {
		nm.invoke(lambdanode.CmdWarmup)
	}
}

// startPing opens a preflight PING round trip (§3.3) — reached only on
// a busy-period edge: after an adoption handshake expired, or after a
// request timeout demoted the connection.
func (nm *nodeManager) startPing() {
	if err := nm.conn.Forward(protocol.TPing, nm.p.nextSeq(), nm.name, "", nil, nil); err != nil {
		nm.dropConn()
		nm.pump()
		return
	}
	nm.validating = true
	nm.valInvoke = false
	nm.valDeadline = nm.p.cfg.Clock.Now().Add(nm.p.cfg.PingTimeout)
}

// expireAndArm times out overdue validation waits and in-flight
// requests, re-drives what survives, and returns a timer channel for
// the earliest remaining deadline (nil when nothing is pending). The
// front of sendOrder always holds the earliest live request deadline,
// so steady-state cost is O(1) amortised, and one timer is kept armed
// across events rather than allocated per loop iteration (a spurious
// wake after the earliest deadline moved later is harmless: the scan
// finds nothing expired and re-arms).
func (nm *nodeManager) expireAndArm() <-chan time.Time {
	now := nm.p.cfg.Clock.Now()
	expired := false
	if nm.validating && !now.Before(nm.valDeadline) {
		// No PONG: the node died or returned between our knowledge and
		// now; fall back to Sleeping so the next pump re-invokes, and
		// charge the round against everything still queued.
		nm.validating = false
		nm.validated = false
		nm.setState(stateSleeping)
		nm.chargeQueued()
		// The connection goes with it. A node that was running answered
		// on it, so a PONG that never arrived may mean the stream itself
		// is broken: one garbled length field leaves a reader waiting for
		// bytes that never come, with every later frame stuck behind
		// them. Reused, such a connection swallows every PONG and chunk
		// reply to come; dropped, the node redials on its next
		// invocation.
		if nm.conn != nil {
			nm.dropConn()
		}
		expired = true
	}
	var overdue []*pending
	nm.mu.Lock()
	for nm.sendHead < len(nm.sendOrder) {
		e := nm.sendOrder[nm.sendHead]
		pr, ok := nm.inflight[e.seq]
		if !ok || !pr.deadline.Equal(e.deadline) {
			nm.popSent() // completed or re-driven; stale
			continue
		}
		if now.Before(pr.deadline) {
			break // everything behind is later still
		}
		nm.popSent()
		delete(nm.inflight, e.seq)
		overdue = append(overdue, pr)
	}
	nm.mu.Unlock()
	for _, pr := range overdue {
		// An unanswered request demotes the connection: the retry
		// must re-validate (PING, then re-invoke if that too hangs)
		// before anything else is sent.
		nm.validated = false
		nm.retryOrFail(pr, true)
		expired = true
	}
	if expired {
		nm.pump() // restart validation for whatever was requeued
	}
	var earliest time.Time
	if nm.validating {
		earliest = nm.valDeadline
	}
	if nm.sendHead < len(nm.sendOrder) {
		if first := nm.sendOrder[nm.sendHead].deadline; earliest.IsZero() || first.Before(earliest) {
			earliest = first
		}
	}
	if earliest.IsZero() {
		nm.timerC, nm.timerAt = nil, time.Time{}
		return nil
	}
	if nm.timerC == nil || earliest.Before(nm.timerAt) {
		nm.timerC = nm.p.cfg.Clock.After(earliest.Sub(now))
		nm.timerAt = earliest
	}
	return nm.timerC
}

// startBackup is steps 2-4 of Figure 10: launch a relay and tell the
// source where to find it.
func (nm *nodeManager) startBackup() {
	if nm.conn == nil {
		return
	}
	addr, err := nm.p.startRelay()
	if err != nil {
		return
	}
	nm.p.stats.Backups.Add(1)
	nm.conn.Send(&protocol.Message{Type: protocol.TBackupCmd, Key: nm.name, Addr: addr})
}

// flushDels sends queued evictions down a validated connection. The
// carry-over slice is reused across rounds rather than reallocated.
func (nm *nodeManager) flushDels() {
	for {
		select {
		case k := <-nm.delCh:
			nm.pendingDel = append(nm.pendingDel, k)
		default:
			goto drain
		}
	}
drain:
	if nm.conn == nil || len(nm.pendingDel) == 0 {
		return
	}
	kept := nm.pendingDel[:0]
	for _, k := range nm.pendingDel {
		if err := nm.conn.Forward(protocol.TDel, nm.p.nextSeq(), k, "", nil, nil); err != nil {
			kept = append(kept, k)
		}
	}
	nm.pendingDel = kept
}
