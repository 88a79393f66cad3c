// Package client implements the InfiniCache client library (§3.1): the
// application-facing API. It erasure-codes objects with a Reed-Solomon
// codec, balances requests over proxies with a consistent-hashing ring,
// chooses random non-repeating Lambda placements for chunks, decodes
// first-d responses, re-inserts the chunks the proxy reports lost (EC
// recovery), and RESETs lost objects from the backing store.
//
// The API is context-first and copy-light:
//
//   - GetObject returns a pooled *Object handle that owns the first-d
//     shard buffers — no reassembly copy; stream it with WriteTo/Read or
//     copy once with Bytes, then Release it.
//   - PutCtx/GetCtx/DelCtx/GetOrLoadCtx take a context whose
//     cancellation or deadline propagates into every request wait; an
//     abandoned request sends CANCEL so the proxy releases its window
//     slots instead of serving a caller that left.
//   - MGet/MPut (batch.go) fan a key set out across the owning proxies
//     and ride each proxy connection as one pipelined burst.
//
// Inside, every operation is one attempt function (tryGet, tryRange,
// tryPut, a DEL round trip) run by the single op driver, do, which owns
// retries, redirects and ring refreshes; every attempt waits in the
// single collect loop (conn.go), and every reply frame becomes an error
// in classify.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"infinicache/internal/bufpool"
	"infinicache/internal/cluster"
	"infinicache/internal/ec"
	"infinicache/internal/protocol"
	"infinicache/internal/vclock"
)

// ProxyInfo describes one proxy a client can talk to.
type ProxyInfo struct {
	Addr     string
	PoolSize int // number of Lambda nodes behind that proxy
}

// Config parameterises a Client.
type Config struct {
	Proxies []ProxyInfo
	// DataShards (d) and ParityShards (p) select the RS(d+p) code.
	DataShards   int
	ParityShards int
	Clock        vclock.Clock
	// RequestTimeout bounds one GET or PUT operation (virtual time).
	RequestTimeout time.Duration
	// EnableRecovery re-inserts the chunks the proxy reports lost: a
	// GET whose DATA frames list lost chunks rebuilds exactly those from
	// the decoded object and writes them back before it returns.
	EnableRecovery bool
	Seed           int64
	// Dial overrides the transport dialer; nil means net.Dial("tcp", ·).
	// Tests use it to instrument the client's proxy connections (e.g.
	// counting write syscalls to pin flush coalescing).
	Dial func(addr string) (net.Conn, error)
	// StripeShard is the target data-shard size in bytes for streaming
	// PUTs (PutReader): each stripe carries StripeShard×DataShards data
	// bytes, so StripeShard bounds the payload of every chunk a stream
	// ships. Objects at or under one stripe are stored exactly as PutCtx
	// stores them. Default 1 MiB.
	StripeShard int64
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.StripeShard <= 0 {
		c.StripeShard = 1 << 20
	}
}

// Option adjusts a Config at construction time — the functional-options
// boundary the public API (infinicache.NewClient) exposes.
type Option func(*Config)

// WithShards overrides the RS(d+p) code for this client.
func WithShards(data, parity int) Option {
	return func(c *Config) { c.DataShards, c.ParityShards = data, parity }
}

// WithSeed makes the client's chunk placement deterministic.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithStripeShard sets the target data-shard size for streaming PUTs
// (see Config.StripeShard). Tests shrink it to exercise many-stripe
// geometry with small objects.
func WithStripeShard(bytes int64) Option {
	return func(c *Config) { c.StripeShard = bytes }
}

// Stats counts client-side cache outcomes.
type Stats struct {
	Gets          atomic.Int64
	Hits          atomic.Int64
	ColdMisses    atomic.Int64 // key never inserted (or evicted)
	Losses        atomic.Int64 // object lost to reclamation (> p chunks)
	Resets        atomic.Int64 // loss-triggered re-inserts via GetOrLoad
	Puts          atomic.Int64
	Decodes       atomic.Int64 // GETs that needed EC reconstruction
	Recoveries    atomic.Int64 // chunks re-inserted by EC recovery
	Redirects     atomic.Int64 // WRONG_OWNER redirects followed
	RingRefreshes atomic.Int64 // newer epochs installed via RING fetch
	// ChecksumFailures counts DATA frames whose payload failed the
	// chunk-checksum verify (corruption in transit); each one was
	// retried, never returned to the caller.
	ChecksumFailures atomic.Int64
}

// Common errors.
var (
	ErrMiss     = errors.New("client: cache miss")
	ErrLost     = errors.New("client: object lost (reclaimed chunks exceed parity)")
	ErrTimeout  = errors.New("client: request timed out")
	ErrRejected = errors.New("client: proxy rejected request")
)

// Client is the InfiniCache client library handle. Safe for concurrent
// use by multiple goroutines.
type Client struct {
	cfg   Config
	codec *ec.Codec

	// epoch is the client's current view of the proxy membership ring.
	// It starts as a version-0 snapshot of Config.Proxies and advances
	// lazily: a WRONG_OWNER redirect names a newer version, refreshRing
	// fetches it (RING frame) and installs it monotonically. Lock-free
	// on the request path.
	epoch atomic.Pointer[cluster.Epoch]
	// refreshMu serialises ring fetches so a redirect storm coalesces
	// into one RING round trip.
	refreshMu sync.Mutex

	// recovery single-flights repair per (key, repaired as of the GET's
	// send): concurrent readers of the same degraded object coalesce
	// onto one re-insert instead of racing duplicate chunk SETs, and a
	// reader whose GET was sent before this client's last repair
	// completed stands down, since its lost list may predate it.
	recovery *cluster.Plane
	// repaired counts the repairs this client completed.
	repaired atomic.Uint64

	mu    sync.Mutex
	conns map[string]*proxyConn
	rng   *rand.Rand
	perms map[int][]int // per-pool-size scratch permutation (placement)

	seq    atomic.Uint64
	putGen atomic.Int64

	stats Stats
}

// New creates a client from cfg, with opts applied on top.
func New(cfg Config, opts ...Option) (*Client, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.fillDefaults()
	if len(cfg.Proxies) == 0 {
		return nil, errors.New("client: need at least one proxy")
	}
	codec, err := ec.New(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, err
	}
	total := cfg.DataShards + cfg.ParityShards
	members := make([]cluster.Member, 0, len(cfg.Proxies))
	for _, p := range cfg.Proxies {
		if p.PoolSize < total {
			return nil, fmt.Errorf("client: proxy %s pool %d smaller than d+p=%d", p.Addr, p.PoolSize, total)
		}
		members = append(members, cluster.Member{Addr: p.Addr, PoolSize: p.PoolSize})
	}
	c := &Client{
		cfg:      cfg,
		codec:    codec,
		recovery: cluster.NewPlane(0),
		conns:    make(map[string]*proxyConn),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		perms:    make(map[int][]int),
	}
	// Version 0: any published epoch (versions start at 1) supersedes
	// the static bootstrap list.
	c.epoch.Store(cluster.NewEpoch(0, members))
	return c, nil
}

// Stats returns the client's counters.
func (c *Client) Stats() *Stats { return &c.stats }

// WireStats sums the wire-plane counters (frames, socket flushes,
// vectored writes) across the client's open proxy connections. The
// flushes/frames ratio is the write-coalescing factor: 1.0 means one
// syscall per frame, a pipelined burst drives it toward 1/(d+p).
func (c *Client) WireStats() protocol.ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out protocol.ConnStats
	for _, pc := range c.conns {
		out.Add(pc.conn.Stats())
	}
	return out
}

// Codec exposes the client's erasure codec (examples and tests use it).
func (c *Client) Codec() *ec.Codec { return c.codec }

// Close tears down all proxy connections.
func (c *Client) Close() error {
	c.mu.Lock()
	conns := c.conns
	c.conns = make(map[string]*proxyConn)
	c.mu.Unlock()
	for _, pc := range conns {
		pc.close()
	}
	return nil
}

// proxyFor locates the proxy owning key under the client's current
// epoch view (lock-free ring walk plus one map lookup).
func (c *Client) proxyFor(key string) (ProxyInfo, error) {
	e := c.epoch.Load()
	addr := e.Owner(key)
	if m, ok := e.Member(addr); ok {
		return ProxyInfo{Addr: m.Addr, PoolSize: m.PoolSize}, nil
	}
	return ProxyInfo{}, fmt.Errorf("client: no proxy for key %q", key)
}

// proxyInfo resolves addr against the current epoch view; an address
// outside the view (a fallback target already retired from the ring)
// comes back with PoolSize 0 — readable, but no placement possible.
func (c *Client) proxyInfo(addr string) ProxyInfo {
	if m, ok := c.epoch.Load().Member(addr); ok {
		return ProxyInfo{Addr: m.Addr, PoolSize: m.PoolSize}
	}
	return ProxyInfo{Addr: addr}
}

// wrongOwnerError carries a WRONG_OWNER redirect: the proxy the client
// asked does not own the key under epoch version; owner does. fallback
// flags the migration-window variant — the new owner had a local miss
// and points the client back at the previous owner, which must be asked
// authoritatively (no ownership re-check there).
type wrongOwnerError struct {
	version  uint64
	owner    string
	fallback bool
}

func (e *wrongOwnerError) Error() string {
	kind := "redirect"
	if e.fallback {
		kind = "fallback"
	}
	return fmt.Sprintf("client: wrong owner (%s to %s, epoch v%d)", kind, e.owner, e.version)
}

// The op driver's budgets. They are constants of the driver — one rule
// for every op — not parameters of a caller.
const (
	// maxAttempts is how many attempts one logical operation gets.
	// Node-side transients, busy-write windows and dead connections each
	// charge one.
	maxAttempts = 4
	// redirectBudget bounds how many WRONG_OWNER hops one logical
	// operation follows before giving up, separately from maxAttempts so
	// an epoch bump does not eat the failure budget. Steady state needs
	// zero (client and proxy rings agree); an epoch bump costs one
	// refresh plus one retry.
	redirectBudget = 8
	// busyWriteBackoff is the base delay before retrying a busy-write
	// transient; it doubles per consecutive busy-write attempt (2, 4,
	// 8 ms), sized so a typical in-flight PUT window (an RTT plus d+p
	// chunk acks) has closed by the retry.
	busyWriteBackoff = 2 * time.Millisecond
)

// errTransient marks proxy-reported conditions worth retrying at once
// (chunk timeouts during backup connection swaps).
var errTransient = errors.New("client: transient proxy failure")

// errBusyWrite marks the epoch-guard transient: the object is
// mid-overwrite and stays unreadable until the in-flight PUT
// generation commits. Retrying immediately just burns the retry budget
// inside the same write window, so the driver backs off first.
var errBusyWrite = errors.New("client: object write in progress")

// errConnClosed reports a proxy connection that died mid-operation.
var errConnClosed = errors.New("client: connection closed")

// route is where the driver sends one attempt: the ring owner of the
// op's route key or, while chasing a fallback redirect, the key's
// previous owner. The authoritative flag (GET Args[0] = 1) makes that
// proxy serve regardless of ring ownership and answer a plain MISS
// instead of a second fallback redirect.
type route struct {
	ProxyInfo
	authoritative bool
}

// do is the one op driver: every public operation is do around a single
// attempt function. It owns routing, the attempt and redirect budgets,
// the membership redirect protocol and the ColdMisses/Redirects
// counters. A WRONG_OWNER reply refreshes the ring view and retries
// through it — a refused write failed its whole generation at the
// proxy, so the retry starts from a clean slate; a fallback redirect
// (migration window: the new owner misses locally) asks the previous
// owner authoritatively, whose answer — data or miss — is final.
func (c *Client) do(ctx context.Context, routeKey string, try func(rt route) error) error {
	var err error
	backoff := busyWriteBackoff
	redirects := 0
	direct := "" // when set, ask this proxy authoritatively instead of routing by ring
	fallbackMissRetried := false
	for attempt := 0; attempt < maxAttempts; {
		seen := c.epoch.Load().Version()
		var rt route
		if direct != "" {
			rt = route{c.proxyInfo(direct), true}
		} else if rt.ProxyInfo, err = c.proxyFor(routeKey); err != nil {
			return err
		}
		if err = try(rt); err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr // the caller left; nothing the attempt reported is worth a retry
		}
		var wo *wrongOwnerError
		switch {
		case rt.authoritative && errors.Is(err, ErrMiss) && !fallbackMissRetried:
			// A fallback miss can race the handoff completing: the
			// source streamed the key and dropped its copy between
			// issuing the redirect and this attempt landing. One pass back
			// through the ring settles it — the new owner either holds
			// the key now or the miss is genuine (a second fallback hop
			// would find it at the source).
			fallbackMissRetried = true
			direct = ""
		case errors.As(err, &wo):
			redirects++
			if redirects > redirectBudget {
				return fmt.Errorf("%w: redirect loop (%d hops): %v", ErrRejected, redirects, err)
			}
			c.stats.Redirects.Add(1)
			// A fallback means the owner is still waiting on the migration
			// stream: chase the key to its previous owner directly. A
			// plain redirect: learn the new ring, then route through it.
			direct = wo.owner
			if !wo.fallback {
				c.refreshRing(ctx, wo.owner, wo.version)
				direct = ""
			}
		case errors.Is(err, errBusyWrite):
			// Adaptive overwrite-retry: the proxy said a PUT generation
			// is mid-commit. Wait the window out (doubling per repeat)
			// instead of re-asking inside it — an immediate retry would
			// spend the whole budget on the same unreadable window.
			select {
			case <-c.cfg.Clock.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				return ctx.Err()
			}
			attempt++
		case errors.Is(err, errTransient):
			// Node-side transient (timeout, backup swap, garbled frame):
			// the fan-out path usually heals immediately; retry at once —
			// a PUT with a fresh placement and generation.
			attempt++
		case errors.Is(err, errConnClosed):
			// The proxy likely left the cluster; pick up the epoch that
			// retired it and retry through the fresh ring.
			c.refreshRing(ctx, "", seen+1)
			direct = ""
			attempt++
		default:
			// Counted here, where ErrMiss becomes final: a miss at the
			// frame level may be provisional (the fallback-race retry
			// above can still turn it into a hit).
			if errors.Is(err, ErrMiss) {
				c.stats.ColdMisses.Add(1)
			}
			return err
		}
	}
	return fmt.Errorf("%w (after %d attempts): %v", ErrRejected, maxAttempts, err)
}

// classify is the one place a reply frame becomes an error: nil for the
// answer type the request expects (want: DATA, ACK or RING), otherwise
// one of the sentinel/typed errors the driver acts on.
func (c *Client) classify(msg *protocol.Message, key string, want protocol.Type) error {
	// Key echo check: every proxy reply carries the key of the command
	// it answers. A mismatch means the command's key field was garbled
	// in transit (the proxy looked up, missed — or deleted — some other
	// key) or the reply's was; either way the frame proves nothing about
	// our key, so treat it as a transient failure and retry.
	if msg.Key != "" && msg.Key != key {
		c.stats.ChecksumFailures.Add(1)
		return fmt.Errorf("%w: reply key mismatch", errTransient)
	}
	switch msg.Type {
	case want:
		return nil
	case protocol.TMiss:
		if msg.Arg(0) == 1 {
			c.stats.Losses.Add(1)
			return ErrLost
		}
		return ErrMiss
	case protocol.TWrongOwner:
		return &wrongOwnerError{version: uint64(msg.Arg(0)), owner: msg.Addr, fallback: msg.Arg(1) == 1}
	case protocol.TErr:
		switch msg.Arg(0) {
		case protocol.StreamObjectFlag:
			// Not an error: the object was streamed in stripes and must be
			// read through the ranged plane; Args[1] carries its size.
			return errStreamObject{size: msg.Arg(1)}
		case protocol.TransientFlag:
			// The proxy failed the request for a transient reason (a node
			// timeout, a backup swap, a frame that arrived garbled) — a
			// retry usually lands, so it must not burn the op as
			// ErrRejected.
			if msg.Arg(1) == protocol.TransientBusyWrite {
				return errBusyWrite
			}
			return errTransient
		}
		return fmt.Errorf("%w: %s", ErrRejected, msg.Payload)
	}
	return fmt.Errorf("%w: unexpected %v reply", ErrRejected, msg.Type)
}

// refreshRing fetches the current membership epoch with a RING frame
// and installs it if newer than the client's view. hint (the
// redirecting proxy's named owner — it provably has the new epoch) is
// tried first, then every member of the current view. Serialised so a
// redirect storm coalesces: whoever waited on the lock while a version
// >= want was installed (want is the version a redirect named, or one
// past the view a dead connection was routed under) has nothing left to
// fetch.
func (c *Client) refreshRing(ctx context.Context, hint string, want uint64) {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	cur := c.epoch.Load()
	if cur.Version() >= want {
		return
	}
	cands := make([]string, 0, len(cur.Members())+1)
	if hint != "" {
		cands = append(cands, hint)
	}
	for _, m := range cur.Members() {
		if m.Addr != hint {
			cands = append(cands, m.Addr)
		}
	}
	for _, addr := range cands {
		e, err := c.fetchRing(ctx, addr)
		if err != nil {
			continue
		}
		if e.Version() > cur.Version() {
			c.epoch.Store(e)
			c.stats.RingRefreshes.Add(1)
		}
		return
	}
}

// fetchRing asks one proxy for its epoch. Every proxy has one, so a
// reply that does not decode, an empty one included, is an error.
func (c *Client) fetchRing(ctx context.Context, addr string) (*cluster.Epoch, error) {
	var e *cluster.Epoch
	err := c.ask(ctx, addr, protocol.TRing, "", nil, 2, func(msg *protocol.Message) (bool, error) {
		ferr := c.classify(msg, "", protocol.TRing)
		if ferr == nil {
			e, ferr = cluster.DecodeEpoch(msg.Payload)
		}
		return true, ferr
	})
	return e, err
}

// placement draws a vector of n non-repeating Lambda indexes (IDλ,
// §3.1) with a partial Fisher–Yates shuffle over a persistent
// per-pool-size scratch permutation: O(n) steps and only the result
// slice allocated, where the previous implementation drew a full
// rng.Perm(poolSize) under the mutex for every operation. The scratch
// remains a permutation of 0..poolSize-1 across calls, and a partial
// Fisher–Yates from any starting permutation draws uniformly, so the
// distribution is unchanged.
func (c *Client) placement(poolSize, n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	perm := c.perms[poolSize]
	if perm == nil {
		perm = make([]int, poolSize)
		for i := range perm {
			perm[i] = i
		}
		c.perms[poolSize] = perm
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		j := i + c.rng.Intn(poolSize-i)
		perm[i], perm[j] = perm[j], perm[i]
		out[i] = perm[i]
	}
	return out
}

// PutCtx erasure-codes value and stores its chunks across the pool
// behind the key's proxy, overwriting any previous version atomically
// from this client's perspective (waiting for every chunk
// acknowledgement). Cancelling ctx abandons the operation: unacked
// chunk SETs are CANCELled at the proxy and ctx.Err() is returned.
func (c *Client) PutCtx(ctx context.Context, key string, value []byte) error {
	if len(value) == 0 {
		return errors.New("client: empty value")
	}
	c.stats.Puts.Add(1)
	return c.put(ctx, key, key, value, nil)
}

// put drives one PUT generation through do. routeKey picks the owning
// proxy while entryKey names the mapping entry written — they differ
// only on the streaming path, where a stripe entry must land on its
// parent object's owner so the whole family lives (and dies) together.
// extra args (the head stripe's stream geometry) are appended to every
// SET frame of the generation.
func (c *Client) put(ctx context.Context, routeKey, entryKey string, value []byte, extra []int64) error {
	return c.do(ctx, routeKey, func(rt route) error {
		return c.tryPut(ctx, rt, entryKey, value, extra)
	})
}

// tryPut is one PUT attempt: encode value and pipeline its chunks to
// one proxy.
func (c *Client) tryPut(ctx context.Context, rt route, key string, value []byte, extra []int64) error {
	pc, err := c.conn(rt.Addr)
	if err != nil {
		return err
	}
	total := c.codec.TotalShards()
	// One ACK (or ERR) per chunk lands on the claim; +1 slack for a stale
	// frame.
	w, err := c.claim(pc, total, total+1)
	if err != nil {
		return err
	}
	defer w.release()
	if err := c.stageValue(&w, 0, rt.PoolSize, key, value, putSet, extra); err != nil {
		return err
	}
	return c.collectAcks(ctx, &w, key)
}

// stageValue erasure-codes value and stages its d+p chunk SETs on tags
// tag0.. of w. Every data shard that lies wholly inside value is a
// window into it — the caller's bytes go to the wire without a copy;
// only a zero-padded tail shard and the parity shards are buffers, and
// only those come from (and return to) the pool: caller memory is never
// Put. Staging copies or writes each payload synchronously, so nothing
// references either kind once it returns.
func (c *Client) stageValue(w *wait, tag0, poolSize int, key string, value []byte, kind setKind, extra []int64) error {
	shards := make([][]byte, c.codec.TotalShards())
	shardSize := c.codec.ShardSize(len(value))
	whole := len(value) / shardSize
	for i := range shards {
		if lo := i * shardSize; i < whole {
			shards[i] = value[lo : lo+shardSize : lo+shardSize]
		} else {
			shards[i] = bufpool.Get(shardSize)
			if i < c.codec.DataShards() {
				n := 0
				if lo < len(value) {
					n = copy(shards[i], value[lo:])
				}
				clear(shards[i][n:]) // pooled buffers arrive dirty
			}
		}
	}
	defer bufpool.PutAll(shards[whole:])
	if err := c.codec.Encode(shards); err != nil {
		return err
	}
	return c.stageSets(w, tag0, poolSize, key, int64(len(value)), shards, kind, extra)
}

// setKind is which of the proxy's ingest rules a SET generation asks
// for.
type setKind int

const (
	putSet      setKind = iota // a PUT generation: (re)initialises the entry
	recoverySet                // Args[6] = 1: re-inserts lost chunks of the entry, belongs to no generation
	handoffSet                 // Args[7] = 1: a migration handoff, refused where the proxy holds the key
)

// stageSets is the one SET stager: it draws a fresh placement and
// generation and pipelines one SET frame per shard (tag tag0+i of w)
// down the proxy connection's single writer, with no goroutine per
// shard and no Message allocation per chunk (the header is assembled
// directly by Conn.Forward around the pooled shard buffer). Nil shards
// are skipped and their tags finished (the recovery path re-inserts a
// sparse subset). kind sets the frames' recovery and handoff flags.
//
// The whole burst rides one Pin window: every SET frame is staged back
// to back and the closing Flush puts the burst on the wire in O(1)
// syscalls (large shards vector out as they stage). The Flush must land
// before collect blocks — an unflushed SET would wait forever for its
// own ACK.
func (c *Client) stageSets(w *wait, tag0, poolSize int, key string, objSize int64, shards [][]byte, kind setKind, extra []int64) error {
	if poolSize < len(shards) {
		// Only a redirect can route a write to a proxy outside the ring
		// view (pool size unknown): there is no placement to draw.
		return fmt.Errorf("%w: no placement for %d chunks in a pool of %d", ErrRejected, len(shards), poolSize)
	}
	nodes := c.placement(poolSize, len(shards))
	gen := c.putGen.Add(1)
	rec, mig := int64(0), int64(0)
	switch kind {
	case recoverySet:
		rec = 1
	case handoffSet:
		mig = 1
	}
	// Fixed-size scratch keeps the hot path allocation-free; extra is at
	// most the two stream-geometry args a head stripe carries.
	var args [11]int64
	nargs := 9 + len(extra)
	if nargs > len(args) {
		return fmt.Errorf("client: %d extra put args exceed frame scratch", len(extra))
	}
	w.pc.conn.Pin()
	for i, shard := range shards {
		if shard == nil {
			w.finish(tag0 + i)
			continue
		}
		// The chunk checksum rides Args[protocol.ChecksumArgSet] so the
		// proxy can verify the payload — and the (key, idx) routing the
		// sum is bound to — survived the wire before committing it.
		args = [11]int64{
			int64(i), int64(len(shards)), int64(nodes[i]),
			objSize, int64(c.codec.DataShards()), gen, rec,
			mig, protocol.ChunkSum(key, i, shard),
		}
		copy(args[9:], extra)
		if err := w.pc.conn.Forward(protocol.TSet, w.seq(tag0+i), key, "", args[:nargs], shard); err != nil {
			// The writer is dead; nothing later in the pipeline can land.
			w.pc.conn.Flush()
			return connErr(fmt.Sprintf("put chunk %d", i), err)
		}
	}
	return connErr("put flush", w.pc.conn.Flush())
}

// worse picks which of two failures a PUT generation surfaces. A
// redirect outranks per-chunk noise: the proxy failed the whole
// generation, so the driver's right move is refresh-and-retry, not
// surfacing a chunk error. A hard failure (rejected chunk, timeout,
// dead connection) outranks a transient, which alone is retried with a
// fresh placement. Within a rank the first failure seen stays.
func worse(cur, next error) error {
	rank := func(err error) int {
		if err == nil {
			return 0
		}
		var wo *wrongOwnerError
		switch {
		case errors.Is(err, errTransient), errors.Is(err, errBusyWrite):
			return 1
		case errors.As(err, &wo):
			return 3
		}
		return 2
	}
	if rank(next) > rank(cur) {
		return next
	}
	return cur
}

// foldAck folds one chunk reply into its generation's verdict so far.
func (c *Client) foldAck(verdict error, key string, chunk int, msg *protocol.Message) error {
	if err := c.classify(msg, key, protocol.TAck); err != nil {
		return worse(verdict, fmt.Errorf("chunk %d: %w", chunk, err))
	}
	return verdict
}

// collectAcks waits out one generation's chunk acks (one reply per
// pending tag of w) and returns its verdict. Acked seqs are
// deregistered as they land, so on an abandon the pending set names
// exactly the chunks still in flight — the ones collect CANCELs at the
// proxy before giving up.
func (c *Client) collectAcks(ctx context.Context, w *wait, key string) error {
	var verdict error
	err := c.collect(ctx, w, func(chunk int, msg *protocol.Message) bool {
		verdict = c.foldAck(verdict, key, chunk, msg)
		return true
	})
	return worse(verdict, err)
}

// GetObject fetches an object as a zero-copy *Object handle: the
// pooled first-d shard buffers are handed to the caller without the
// reassembly copy. The caller must Release the handle (after Bytes,
// WriteTo or Read) to recycle the buffers. ErrMiss means the key is not
// cached; ErrLost means it was cached but reclamation destroyed more
// than p chunks (RESET it from the backing store). Transient proxy
// failures (e.g. chunk timeouts during a backup connection swap) are
// retried internally; ctx cancellation aborts the wait and CANCELs the
// in-flight request at the proxy.
func (c *Client) GetObject(ctx context.Context, key string) (*Object, error) {
	c.stats.Gets.Add(1)
	return c.getObject(ctx, key, nil)
}

// getObject drives one whole-object read through do. first, when
// non-nil, is the outcome of attempt 1 already made in an MGet burst.
// This is the one place a read switches to its ranged form: the proxy
// answers a whole-object GET of a multi-stripe streamed object with the
// object's size, and the same attempt re-reads [0, size) through the
// ranged plane.
func (c *Client) getObject(ctx context.Context, key string, first error) (*Object, error) {
	var obj *Object
	err := c.do(ctx, key, func(rt route) error {
		err := first
		first = nil
		if err == nil {
			obj, err = c.tryGet(ctx, rt, key)
		}
		if err != nil {
			var eso errStreamObject
			if errors.As(err, &eso) {
				obj, err = c.rangeObject(ctx, rt, key, eso.size)
			}
		}
		return err
	})
	return obj, err
}

// GetCtx fetches and reassembles an object into a fresh contiguous
// buffer (GetObject + Bytes + Release). Prefer GetObject on hot paths.
func (c *Client) GetCtx(ctx context.Context, key string) ([]byte, error) {
	obj, err := c.GetObject(ctx, key)
	if err != nil {
		return nil, err
	}
	data := obj.Bytes()
	obj.Release()
	return data, nil
}

// gather accumulates one key's first-d DATA fan-in (shared by the
// single-key tryGet and the MGet burst).
type gather struct {
	obj      *Object
	received int
	lost     []int // chunks the proxy reported lost, from the first accepted frame
}

// applyGetFrame advances a gather with one inbound frame. done reports
// the key finished: with err (miss/loss/transient/rejected/decode — the
// caller releases the partial object), or with g.obj complete (decoded
// if one of the first d was a parity chunk, geometry recorded, Hit
// counted) and ownership ready to hand to the caller.
func (c *Client) applyGetFrame(g *gather, key string, msg *protocol.Message) (done bool, err error) {
	if err := c.classify(msg, key, protocol.TData); err != nil {
		return true, err
	}
	d, total := c.codec.DataShards(), c.codec.TotalShards()
	// Every DATA frame carries the object's true RS geometry; a
	// client whose codec disagrees (e.g. a per-client WithShards
	// override against a differently-coded deployment) must fail
	// loudly here — decoding with the wrong code returns garbage
	// bytes with no error.
	if fd, ft := int(msg.Arg(2)), int(msg.Arg(3)); fd != d || ft != total {
		return true, fmt.Errorf("%w: object is RS(%d+%d) but this client speaks RS(%d+%d)",
			ErrRejected, fd, ft-fd, d, total-d)
	}
	idx, size := int(msg.Arg(0)), int(msg.Arg(1))
	if idx < 0 || idx >= total || g.obj.shards[idx] != nil {
		return false, nil // duplicate or out-of-range frame
	}
	// End-to-end integrity: the shard must be the size the geometry
	// demands and must match the checksum computed at encode time. A
	// mismatch means corruption in transit or at rest — treat it as a
	// transient node failure so the retry path re-fetches (and the
	// proxy escalates repeat offenders into erasures) instead of
	// decoding garbage.
	if len(msg.Payload) != c.codec.ShardSize(size) {
		c.stats.ChecksumFailures.Add(1)
		return true, fmt.Errorf("%w: chunk %d: bad shard length", errTransient, idx)
	}
	if protocol.ChunkSum(key, idx, msg.Payload) != msg.Arg(protocol.ChecksumArgData) {
		c.stats.ChecksumFailures.Add(1)
		return true, fmt.Errorf("%w: chunk %d: checksum mismatch", errTransient, idx)
	}
	if g.received == 0 && len(msg.Args) > protocol.ChecksumArgData {
		// Every frame of the read carries the same lost list.
		for _, l := range msg.Args[protocol.ChecksumArgData+1:] {
			if l >= 0 && l < int64(total) {
				g.lost = append(g.lost, int(l))
			}
		}
	}
	g.obj.shards[idx] = msg.Payload // ownership moves to the handle
	msg.Payload = nil
	g.received++
	if g.received < d {
		return false, nil
	}
	// Reassembly is deferred to the Object handle: if one of the
	// first d arrivals was a parity chunk, run EC reconstruction
	// (first-d trade-off, §3.2); either way the data shards are
	// handed over in place — no Join copy.
	for i := 0; i < d; i++ {
		if g.obj.shards[i] == nil {
			c.stats.Decodes.Add(1)
			if derr := c.codec.ReconstructData(g.obj.shards); derr != nil {
				return true, fmt.Errorf("client: decode: %w", derr)
			}
			break
		}
	}
	g.obj.d, g.obj.size = d, size
	c.stats.Hits.Add(1)
	return true, nil
}

// authArgs is the GET argument vector carrying the authoritative flag.
var authArgs = []int64{1}

// tryGet runs one whole-object GET attempt against rt.
func (c *Client) tryGet(ctx context.Context, rt route, key string) (*Object, error) {
	var args []int64
	if rt.authoritative {
		args = authArgs
	}
	total := c.codec.TotalShards()
	g := gather{obj: newObject(total)}
	repaired := c.repaired.Load()
	err := c.ask(ctx, rt.Addr, protocol.TGet, key, args, total+2, func(msg *protocol.Message) (bool, error) {
		return c.applyGetFrame(&g, key, msg)
	})
	if err != nil {
		// Every exit short of a complete gather (miss, loss, error,
		// timeout, cancel) returns the shards received so far to the
		// pool.
		g.obj.Release()
		return nil, err
	}
	// No recovery against a proxy outside the epoch view (PoolSize
	// unknown) — a retired fallback target is about to drain anyway.
	if c.cfg.EnableRecovery && rt.PoolSize > 0 && len(g.lost) > 0 {
		c.maybeRecover(ctx, rt, key, repaired, g.obj, g.lost)
	}
	return g.obj, nil
}

// maybeRecover re-inserts exactly the chunks the proxy reported lost,
// data or parity; this is the EC recovery activity plotted in Figure
// 14. The handle's data shards are complete (decoded if the read needed
// it), so only the parity shards the read did not collect are rebuilt;
// they join the handle's shard set, so its Release recycles them too.
//
// Repair is single-flighted per (key, repaired count when the GET was
// sent) on the recovery plane: N concurrent degraded GETs of the same
// object produce exactly one set of recovery SETs, and a GET sent
// before this client's last repair completed stands down — its lost
// list may name chunks that repair already put back. A GET sent later
// reads a list drawn after the repair committed, so it repairs only a
// new loss.
func (c *Client) maybeRecover(ctx context.Context, rt route, key string, repaired uint64, obj *Object, lost []int) {
	rkey := fmt.Sprintf("%s@%d", key, repaired)
	if !c.recovery.TryStart(rkey) {
		return // this repair is running, or one completed since the GET was sent
	}
	completed := false
	defer func() { c.recovery.Finish(rkey, completed) }()
	if err := c.codec.Reconstruct(obj.shards); err != nil {
		return
	}
	sparse := make([][]byte, len(obj.shards))
	for _, i := range lost {
		sparse[i] = obj.shards[i]
	}
	pc, err := c.conn(rt.Addr)
	if err != nil {
		return
	}
	w, err := c.claim(pc, len(sparse), len(lost)+1)
	if err != nil {
		return
	}
	defer w.release()
	if c.stageSets(&w, 0, rt.PoolSize, key, int64(obj.size), sparse, recoverySet, nil) == nil && c.collectAcks(ctx, &w, key) == nil {
		completed = true
		c.repaired.Add(1)
		c.stats.Recoveries.Add(int64(len(lost)))
	}
}

// DelCtx invalidates an object (the client library's
// overwrite/invalidation duty, §3.1). The driver follows WRONG_OWNER
// redirects — the DELETE must land at the ring owner so its tombstone
// fences any in-flight migration of the key.
func (c *Client) DelCtx(ctx context.Context, key string) error {
	return c.do(ctx, key, func(rt route) error {
		return c.ask(ctx, rt.Addr, protocol.TDel, key, nil, 2, func(msg *protocol.Message) (bool, error) {
			return true, c.classify(msg, key, protocol.TAck)
		})
	})
}

// Fetch reads bytes [0, n) of key from the proxy at from as an
// authoritative ranged GET — served whoever the ring says owns the key —
// run through the op driver's retry rules; a degraded stripe is
// reconstructed on the way. The migration plane reads a moved entry
// with it: n is the entry's size, so for the head of a streamed object
// it returns exactly the first stripe.
func (c *Client) Fetch(ctx context.Context, from, key string, n int64) ([]byte, error) {
	var data []byte
	err := c.do(ctx, key, func(route) (err error) {
		data, err = c.tryRange(ctx, route{ProxyInfo{Addr: from}, true}, key, 0, n)
		return err
	})
	return data, err
}

// Handoff writes value under key to the proxy to as one migration
// generation: a single attempt whose SETs carry the handoff flag, so the
// proxy ingests them only where it holds no copy of the key (a refusal
// is an ErrRejected naming the proxy's reason). extra is the head
// stripe's stream geometry, as for a PUT. Unacked chunks of a handoff
// that times out are CANCELled at the proxy.
func (c *Client) Handoff(ctx context.Context, to ProxyInfo, key string, value []byte, extra []int64) error {
	pc, err := c.conn(to.Addr)
	if err != nil {
		return err
	}
	total := c.codec.TotalShards()
	w, err := c.claim(pc, total, total+1)
	if err != nil {
		return err
	}
	defer w.release()
	if err := c.stageValue(&w, 0, to.PoolSize, key, value, handoffSet, extra); err != nil {
		return err
	}
	return c.collectAcks(ctx, &w, key)
}

// HandoffDone tells the proxy at to that the proxy src has handed it
// every key it owed for epoch version: a JOIN frame whose Key names src,
// acked with the key echoed.
func (c *Client) HandoffDone(ctx context.Context, to, src string, version uint64) error {
	return c.ask(ctx, to, protocol.TJoin, src, []int64{int64(version), 1}, 2, func(msg *protocol.Message) (bool, error) {
		return true, c.classify(msg, src, protocol.TAck)
	})
}

// GetOrLoadCtx returns the cached object, or loads it with loader and
// inserts it on a miss (read-only write-through caching, §3.1). A
// loss-triggered reload is a RESET in the paper's terminology.
func (c *Client) GetOrLoadCtx(ctx context.Context, key string, loader func(context.Context) ([]byte, error)) ([]byte, error) {
	obj, err := c.GetCtx(ctx, key)
	if err == nil {
		return obj, nil
	}
	isLoss := errors.Is(err, ErrLost)
	if !isLoss && !errors.Is(err, ErrMiss) {
		return nil, err
	}
	obj, err = loader(ctx)
	if err != nil {
		return nil, err
	}
	if isLoss {
		c.stats.Resets.Add(1)
	}
	if perr := c.PutCtx(ctx, key, obj); perr != nil {
		// The object is still valid for the caller even if caching failed.
		return obj, nil
	}
	return obj, nil
}
