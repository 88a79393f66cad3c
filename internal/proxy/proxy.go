// Package proxy implements the InfiniCache proxy (§3.2): the rendezvous
// server that Lambda cache nodes dial into (they cannot accept inbound
// connections), the owner of the chunk→Lambda mapping table and the
// CLOCK-based object-granularity eviction policy, the first-d parallel
// I/O engine that streams erasure-coded chunks between clients and
// Lambda nodes, the optional proxy-resident hot-object tier, and the
// coordinator (plus relay) for the §4.2 delta-sync backup protocol.
//
// # Structure and goroutine ownership
//
// One Proxy runs: an accept loop classifying inbound connections
// (JOIN_LAMBDA → its node's dispatcher, JOIN_CLIENT → a session), one
// session goroutine per client connection (session.go — a single event
// loop running per-request GET/SET state machines; no goroutine per
// message), one dispatcher goroutine per Lambda node (node.go — the
// Figure 6 state machine plus a windowed in-flight map its connection's
// reader matches responses against), and one relay per backup round
// (relay.go). Each piece of mutable state has exactly one owner:
//
//   - session state (the open PUT generations in writes, per-op
//     structs) — the session goroutine only; other goroutines reach a
//     session solely through its completions channel.
//   - the dispatcher queue and Figure 6 state — the dispatcher
//     goroutine; the in-flight window map is the one structure shared
//     with its reader goroutine (guarded by nodeManager.mu — whoever
//     deletes an entry owns that request's pending).
//   - the mapping table and the hot tier — internally locked; any
//     session may call them. Hot-tier entries are immutable after
//     insert and their chunk buffers GC-owned, so sessions forward
//     them without holding the tier lock.
//
// # Consistency rules
//
// Every proxy always has a membership epoch (migrate.go): New installs
// a version-0 ring of the proxy alone, which owns every key, and
// SetEpoch installs each published one. Its consistent-hash ring gives
// every key exactly one owning proxy, so a request for a key owned
// elsewhere is redirected, and ordering decisions are local: a PUT
// generation invalidates the hot tier before its first chunk reaches a
// node (beginPut), commits are epoch-guarded against superseded
// incarnations (mapping.go), and loss verdicts earned against a
// replaced entry neither drop nor taint the new one — see the "Hot
// tier" section of ARCHITECTURE.md for the full coherence argument.
package proxy

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"infinicache/internal/cluster"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/lambdanode"
	"infinicache/internal/netsim"
	"infinicache/internal/protocol"
	"infinicache/internal/vclock"
)

// Config parameterises a Proxy.
type Config struct {
	Clock   vclock.Clock
	Invoker lambdaemu.Invoker
	// Nodes are the Lambda function names in this proxy's pool; a chunk
	// placement index ("IDλ" in §3.1) indexes into this slice.
	Nodes []string
	// NodeMemoryMB is each node's cache capacity for the proxy's
	// pool-memory accounting (§3.2).
	NodeMemoryMB int
	// ListenAddr is the address to bind; on TCP ":0" picks a free port.
	ListenAddr string
	// Listen and Dial are the proxy's transport: Listen binds its own
	// listener (on ListenAddr) and one more per backup relay, Dial is how
	// its migration worker, a client of this proxy and of its peers,
	// reaches them. nil means TCP; an emulated deployment passes a
	// netsim.Network's pair instead.
	Listen func(addr string) (net.Listener, error)
	Dial   func(addr string) (net.Conn, error)
	// PingTimeout bounds a preflight PING round trip (virtual time).
	PingTimeout time.Duration
	// InvokeTimeout bounds waiting for an invoked node to report in.
	InvokeTimeout time.Duration
	// RequestTimeout bounds one chunk request round trip.
	RequestTimeout time.Duration
	// Retries is how many validate/re-invoke attempts a chunk request
	// gets before failing.
	Retries int
	// HotTierBytes caps the proxy-resident hot-object tier; 0 disables
	// it (the default — every GET then pays the full node round trip).
	HotTierBytes int64
	// HotMaxObjectBytes is the hot tier's admission size threshold;
	// objects larger than this are never tier-resident. 0 takes the
	// policy's default (clockcache.NewTier: 1 MiB).
	HotMaxObjectBytes int64
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.Listen == nil {
		c.Listen = func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if c.PingTimeout == 0 {
		c.PingTimeout = 3 * time.Second
	}
	if c.InvokeTimeout == 0 {
		// Must exceed the platform's auto-scale queueing window plus a
		// cold start, or validation gives up while the invoke is still
		// queued behind a busy instance.
		c.InvokeTimeout = 8 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
}

// Stats exposes the proxy's operation counters (all atomic).
type Stats struct {
	Gets          atomic.Int64 // object GET requests
	GetHits       atomic.Int64 // object-level hits (>= d chunks returned)
	GetMisses     atomic.Int64 // object unknown to the mapping table
	ObjectLosses  atomic.Int64 // mapped objects that lost > p chunks
	DegradedGets  atomic.Int64 // hits that needed EC reconstruction
	ChunkMisses   atomic.Int64 // chunk requests answered MISS by a node
	RangedGets    atomic.Int64 // ranged (sub-object) GET requests
	NodeChunkGets atomic.Int64 // chunk GET requests submitted to nodes
	Puts          atomic.Int64 // chunk SET requests from clients
	Dels          atomic.Int64
	Evictions     atomic.Int64 // objects evicted by the CLOCK policy
	Invokes       atomic.Int64 // Lambda invocations issued
	Reinvokes     atomic.Int64 // re-invocations after timeout/BYE races
	Backups       atomic.Int64 // backup rounds coordinated (relays launched)
	BackupsDone   atomic.Int64 // migrations reported complete by λd
	BackupSwaps   atomic.Int64 // λd connections adopted (Maybe state)
	ChunkFailures atomic.Int64 // chunk requests that exhausted retries
	Cancels       atomic.Int64 // client CANCELs matched to an in-flight op

	// Hot-tier counters (all zero while the tier is disabled). HotBytes
	// is a gauge — the tier's current resident payload bytes, pinned
	// ≤ Config.HotTierBytes by eviction; the rest are monotonic.
	HotHits      atomic.Int64 // GETs served from the proxy-resident tier
	HotMisses    atomic.Int64 // GETs that fell through to the node path
	HotBytes     atomic.Int64 // resident payload bytes (gauge)
	HotEvictions atomic.Int64 // objects evicted by the tier's CLOCK hand

	// Membership / migration counters (all zero on a one-member ring,
	// where the proxy owns every key).
	Redirects         atomic.Int64 // WRONG_OWNER frames sent (stale client rings)
	FallbackServes    atomic.Int64 // fallback redirects issued for not-yet-migrated keys
	MigratedKeys      atomic.Int64 // keys streamed out and acked by their new owner
	MigratedBytes     atomic.Int64 // chunk bytes those keys carried
	MigrationDrops    atomic.Int64 // keys skipped mid-migration (unfetchable or refused)
	BackupMetaDemoted atomic.Int64 // META entries demoted for being hot-tier resident

	// Fault-plane counters (chaos/integrity; zero in a healthy run).
	ChecksumFailures atomic.Int64 // chunk payloads that failed CRC verification
	CorruptLost      atomic.Int64 // chunks escalated to lost after repeat corruption
	Repairs          atomic.Int64 // recovery re-insert chunks committed

	// Wire-plane counters for client-facing connections, accumulated as
	// sessions close; WireSnapshot folds still-open sessions in. The
	// flushes/frames ratio is the write-coalescing factor ic-repro -fig batch
	// reports (1.0 = one syscall per frame, the pre-coalescing cost).
	WireFramesOut atomic.Int64 // frames written to client conns
	WireFramesIn  atomic.Int64 // frames read off client conns
	WireFlushes   atomic.Int64 // socket writes those frames cost
	WireVectored  atomic.Int64 // flushes that carried a large payload via writev
}

// Proxy is one InfiniCache proxy instance.
type Proxy struct {
	cfg   Config
	ln    net.Listener
	addr  string
	nodes []*nodeManager
	table *mappingTable
	hot   *hotTier // nil when Config.HotTierBytes == 0

	seq atomic.Uint64

	stats Stats

	// Membership state. epoch is the installed ring and never nil: New
	// installs a version-0 ring of this proxy alone, which owns every
	// key, until SetEpoch replaces it. prevEpoch is non-nil only while
	// inbound migration for the current epoch is still pending from at
	// least one previous-epoch member — the window during which a local
	// table miss may instead be a not-yet-migrated key (fallback
	// redirect) and DELs must leave tombstones so a late migration SET
	// cannot resurrect them.
	epoch     atomic.Pointer[cluster.Epoch]
	prevEpoch atomic.Pointer[cluster.Epoch]
	migMu     sync.Mutex
	migVer    uint64          // epoch version the inbound tracking is for
	migFrom   map[string]bool // prev-epoch member addr -> done received
	migEarly  []string        // sources whose done marker for migEarlyV outran our own install of it
	migEarlyV uint64
	tombs     map[string]struct{}
	migOut    atomic.Int64   // outbound migration workers still running
	migBucket *netsim.Bucket // paces migrateKey's chunk bytes

	mu       sync.Mutex
	closed   bool
	done     chan struct{}
	sessions map[*session]struct{}
	wg       sync.WaitGroup
}

// SeverConns abruptly closes every live client session and node
// connection — the observable effect of a proxy crash/restart, minus
// the process death (listener, mapping table and dispatchers survive,
// exactly like a crashed proxy that restarts with its state intact).
// The chaos plane uses it to exercise mid-stream connection loss:
// clients must classify the break as ring staleness and re-route;
// node dispatchers re-validate and re-drive their windows.
func (p *Proxy) SeverConns() int {
	p.mu.Lock()
	sessions := make([]*session, 0, len(p.sessions))
	for s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	n := 0
	for _, s := range sessions {
		s.conn.Close()
		n++
	}
	for _, nm := range p.nodes {
		if c := nm.connMirror.Load(); c != nil {
			c.Close()
			n++
		}
	}
	return n
}

// New creates and starts a proxy: it binds its listener and launches the
// per-node managers. Callers must Close it.
func New(cfg Config) (*Proxy, error) {
	cfg.fillDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("proxy: need at least one node")
	}
	if cfg.Invoker == nil {
		return nil, errors.New("proxy: need an Invoker")
	}
	if cfg.NodeMemoryMB <= 0 {
		return nil, errors.New("proxy: need NodeMemoryMB > 0")
	}
	ln, err := cfg.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("proxy: listen: %w", err)
	}
	p := &Proxy{
		cfg:      cfg,
		ln:       ln,
		addr:     ln.Addr().String(),
		done:     make(chan struct{}),
		sessions: make(map[*session]struct{}),
	}
	p.epoch.Store(cluster.NewEpoch(0, []cluster.Member{{Addr: p.addr, PoolSize: len(cfg.Nodes)}}))
	p.table = newMappingTable(len(cfg.Nodes), int64(cfg.NodeMemoryMB)<<20)
	if cfg.HotTierBytes > 0 {
		p.hot = newHotTier(cfg.HotTierBytes, cfg.HotMaxObjectBytes, &p.stats)
		// The table invalidates the tier inside its own critical
		// sections (overwrite, DEL, pool eviction, loss), keeping the
		// two structures' orderings identical; see mappingTable.hot.
		p.table.hot = p.hot
	}
	p.migBucket = netsim.NewBurstBucket(migRateBytes, migBurstBytes)
	p.nodes = make([]*nodeManager, len(cfg.Nodes))
	for i, name := range cfg.Nodes {
		p.nodes[i] = newNodeManager(p, i, name)
		p.wg.Add(1)
		go p.nodes[i].run()
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.addr }

// PoolSize returns the number of Lambda nodes this proxy manages.
func (p *Proxy) PoolSize() int { return len(p.nodes) }

// Stats returns the proxy's counters.
func (p *Proxy) Stats() *Stats { return &p.stats }

// WireSnapshot returns the client-facing wire-plane counters — frames
// and socket flushes — across closed and still-open client sessions.
func (p *Proxy) WireSnapshot() protocol.ConnStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := protocol.ConnStats{
		FramesOut: uint64(p.stats.WireFramesOut.Load()),
		FramesIn:  uint64(p.stats.WireFramesIn.Load()),
		Flushes:   uint64(p.stats.WireFlushes.Load()),
		Vectored:  uint64(p.stats.WireVectored.Load()),
	}
	for s := range p.sessions {
		out.Add(s.conn.Stats())
	}
	return out
}

// Close shuts the proxy down: listener, sessions, node managers.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	sessions := make([]*session, 0, len(p.sessions))
	for s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, s := range sessions {
		s.conn.Close()
	}
	p.wg.Wait()
	return nil
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		raw, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.handleConn(raw)
	}
}

// handleConn classifies an inbound connection by its first message:
// Lambda nodes announce JOIN_LAMBDA, clients — a peer's migration worker
// among them — JOIN_CLIENT.
func (p *Proxy) handleConn(raw net.Conn) {
	defer p.wg.Done()
	conn := protocol.NewConn(raw)
	first, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	switch first.Type {
	case protocol.TJoinLambda:
		nm := p.managerByName(first.Key)
		if nm == nil {
			conn.Close()
			return
		}
		backup := first.Arg(1) == 1
		if backup {
			p.stats.BackupSwaps.Add(1)
		}
		select {
		case nm.connCh <- &joinedConn{conn: conn, instanceID: first.Addr, backup: backup}:
		case <-p.done:
			conn.Close()
		}
	case protocol.TJoinClient:
		// A peer proxy's migration worker is a client too: its handoff
		// SETs carry the migration flag and its JOIN frames are done
		// markers.
		s := newSession(p, conn)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.sessions[s] = struct{}{}
		p.mu.Unlock()
		s.run()
		// Retire the session and fold its counters in one critical
		// section: a concurrent WireSnapshot (which reads the atomics
		// under the same lock) must never see the session both in the
		// live set and in the accumulated totals.
		cs := conn.Stats()
		p.mu.Lock()
		delete(p.sessions, s)
		p.stats.WireFramesOut.Add(int64(cs.FramesOut))
		p.stats.WireFramesIn.Add(int64(cs.FramesIn))
		p.stats.WireFlushes.Add(int64(cs.Flushes))
		p.stats.WireVectored.Add(int64(cs.Vectored))
		p.mu.Unlock()
	default:
		conn.Close()
	}
}

func (p *Proxy) managerByName(name string) *nodeManager {
	for _, nm := range p.nodes {
		if nm.name == name {
			return nm
		}
	}
	return nil
}

// invokeNode asks the platform to run a cache node with a request
// payload pointing back at this proxy.
func (p *Proxy) invokeNode(name string, cmd string) error {
	p.stats.Invokes.Add(1)
	pl := &lambdanode.Payload{Cmd: cmd, ProxyAddr: p.addr}
	return p.cfg.Invoker.Invoke(name, pl.Encode())
}

// Warmup asks every node's dispatcher to warm its node — the T_warm
// keep-alive of §4.2, driven by the deployment layer. Each dispatcher
// invokes its node only if it is asleep and not already being invoked
// (see nodeManager.warmup); the call does not wait for them.
func (p *Proxy) Warmup() {
	for _, nm := range p.nodes {
		select {
		case nm.warmCh <- struct{}{}:
		default: // the previous tick is still waiting for the dispatcher
		}
	}
}

func (p *Proxy) nextSeq() uint64 { return p.seq.Add(1) }

// strikeCorrupt is the read-back strike rule, for chunk idx of key's
// incarnation epoch whose node returned bytes that do not match the
// checksum its writing SET carried. The bytes are never used. One
// strike reads as transit damage, which a refetch can clear; a second
// marks the stored chunk positively lost, turning corruption into an
// erasure that reconstruction repairs, and deletes the bad copy from
// node, which served it. Reports whether this strike lost the chunk.
func (p *Proxy) strikeCorrupt(key string, idx, node int, epoch uint64) bool {
	p.stats.ChecksumFailures.Add(1)
	if !p.table.NoteChunkCorrupt(key, idx, node, epoch) {
		return false
	}
	p.stats.CorruptLost.Add(1)
	p.nodes[node].queueDel(ChunkKey(key, idx))
	return true
}
