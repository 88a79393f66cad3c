// Package infinicache is a reproduction of "InfiniCache: Exploiting
// Ephemeral Serverless Functions to Build a Cost-Effective Memory Cache"
// (Wang et al., USENIX FAST 2020): an in-memory object cache built
// entirely on ephemeral serverless functions.
//
// The public API wraps a full local deployment — an emulated serverless
// platform (internal/lambdaemu), one or more proxies (internal/proxy),
// and erasure-coding clients (internal/client) — behind a context-first
// streaming interface configured with functional options:
//
//	cache, err := infinicache.New(
//		infinicache.WithShards(10, 2),
//		infinicache.WithNodesPerProxy(14),
//	)
//	if err != nil { ... }
//	defer cache.Close()
//
//	client, err := cache.NewClient()
//	if err != nil { ... }
//	ctx := context.Background()
//	if err := client.PutCtx(ctx, "my-object", data); err != nil { ... }
//
//	obj, err := client.GetObject(ctx, "my-object") // zero-copy handle
//	if err != nil { ... }
//	obj.WriteTo(w) // stream the shards straight out, no reassembly copy
//	obj.Release()  // return the pooled buffers
//
// Batches ride one pipelined burst per owning proxy:
//
//	for _, r := range client.MGet(ctx, keys...) {
//		if r.Err == nil { r.Object.WriteTo(w); r.Object.Release() }
//	}
//
// Large objects stream: PutReader encodes and ships stripe windows as
// the bytes arrive (peak memory stays a few stripes regardless of
// object size), and GetRange fetches only the data chunks a byte range
// intersects:
//
//	if err := client.PutReader(ctx, "big", size, reader); err != nil { ... }
//	page, err := client.GetRange(ctx, "big", 512<<20, 1<<20) // 1 MiB at 512 MiB
//
// Objects are Reed-Solomon encoded into d+p chunks spread over a pool of
// emulated Lambda functions; the platform reclaims functions per a
// configurable policy, and the cache defends itself with parity chunks,
// periodic warm-ups, and the paper's delta-sync backup protocol.
// Cancelling a context propagates end-to-end: the client CANCELs the
// in-flight request so the proxy's dispatcher window slots free up
// instead of serving a caller that left.
package infinicache

import (
	"time"

	"infinicache/internal/client"
	"infinicache/internal/core"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/vclock"
)

// Option adjusts the deployment configuration at New time. New seeds
// the paper's defaults — one proxy over 20 nodes, RS(10+2), T_warm
// 1 minute, T_bak 5 minutes, real-time pacing — and each option then
// writes its fields, so the last option to touch a field wins.
type Option func(*core.Config)

// WithProxies sets the number of proxies (default 1).
func WithProxies(n int) Option { return func(c *core.Config) { c.Proxies = n } }

// WithNodesPerProxy sets the Lambda pool size behind each proxy
// (default 20).
func WithNodesPerProxy(n int) Option { return func(c *core.Config) { c.NodesPerProxy = n } }

// WithNodeMemoryMB sizes each cache-node function (default 1536, the
// paper's production configuration).
func WithNodeMemoryMB(mb int) Option { return func(c *core.Config) { c.NodeMemoryMB = mb } }

// WithShards picks the RS(d+p) erasure code (default 10+2).
func WithShards(data, parity int) Option {
	return func(c *core.Config) { c.DataShards, c.ParityShards = data, parity }
}

// WithWarmupInterval sets T_warm (§4.2; default 1 minute); 0 or
// negative disables warm-ups.
func WithWarmupInterval(d time.Duration) Option {
	return func(c *core.Config) { c.WarmupInterval = max(d, 0) }
}

// WithBackupInterval sets T_bak (§4.2; default 5 minutes); 0 or
// negative disables delta-sync backups.
func WithBackupInterval(d time.Duration) Option {
	return func(c *core.Config) { c.BackupInterval = max(d, 0) }
}

// WithHotTier gives each proxy a resident hot-object tier of bytes
// bytes: small, frequently-read objects are served from proxy memory,
// short-circuiting the Lambda round trip (admission is write-through
// and read-through, frequency-gated; overwrites, deletes and cancelled
// PUTs invalidate synchronously). Off by default; 0 or negative
// disables.
func WithHotTier(bytes int64) Option {
	return func(c *core.Config) { c.HotTierBytes = max(bytes, 0) }
}

// WithHotTierMaxObject caps the object size the hot tier admits
// (default 1 MiB). Only meaningful together with WithHotTier.
func WithHotTierMaxObject(bytes int64) Option {
	return func(c *core.Config) { c.HotMaxObjectBytes = bytes }
}

// WithReclaimPolicy drives provider-side reclamation (default none).
func WithReclaimPolicy(p lambdaemu.ReclaimPolicy) Option {
	return func(c *core.Config) { c.ReclaimPolicy = p }
}

// WithTimeScale compresses virtual time (0.01 = 100x faster than the
// wall clock); 0, the default, means real time.
func WithTimeScale(s float64) Option { return func(c *core.Config) { c.TimeScale = s } }

// WithClock runs the deployment on an explicit clock (wins over
// WithTimeScale); pass a *vclock.Manual for deterministic tests.
func WithClock(clk vclock.Clock) Option { return func(c *core.Config) { c.Clock = clk } }

// WithTimeout bounds each client operation (default 60s), for every
// client NewClient makes.
func WithTimeout(d time.Duration) Option { return func(c *core.Config) { c.RequestTimeout = d } }

// WithRecovery toggles client-side EC chunk recovery: a GET
// re-inserts the chunks the proxy reports lost, data or parity. Off
// unless set.
func WithRecovery(on bool) Option { return func(c *core.Config) { c.EnableRecovery = on } }

// WithSeed makes placement and policies deterministic.
func WithSeed(seed int64) Option { return func(c *core.Config) { c.Seed = seed } }

// Cache is a running InfiniCache deployment.
type Cache struct {
	d *core.Deployment
}

// Client is the application-facing cache handle: context-first
// GetObject/GetCtx/PutCtx/DelCtx/GetOrLoadCtx plus the batched
// MGet/MPut.
type Client = client.Client

// Object is the zero-copy handle a GetObject returns: stream it with
// WriteTo/Read or copy with Bytes, then Release it to recycle the
// pooled shard buffers.
type Object = client.Object

// KV, GetResult and PutResult are the batch-operation inputs/outcomes.
type (
	KV        = client.KV
	GetResult = client.GetResult
	PutResult = client.PutResult
)

// Stats re-exports the client counters.
type Stats = client.Stats

// ClientOption tunes one client made by NewClient.
type ClientOption = client.Option

// Per-client options (NewClient(...)): RS code, placement seed and
// streaming stripe-shard overrides.
var (
	ClientShards = client.WithShards
	ClientSeed   = client.WithSeed
	// ClientStripeShard sets the target data-shard size for streaming
	// PUTs: each PutReader stripe carries shard×d data bytes, so it
	// bounds both the per-chunk payload and the client's resident
	// window. Default 1 MiB.
	ClientStripeShard = client.WithStripeShard
)

// Errors re-exported from the client library.
var (
	// ErrMiss: the key is not cached.
	ErrMiss = client.ErrMiss
	// ErrLost: the key was cached but reclamation destroyed more than
	// p chunks; reload it from the backing store.
	ErrLost = client.ErrLost
	// ErrTimeout: the operation outlived the request timeout.
	ErrTimeout = client.ErrTimeout
	// ErrRejected: the proxy refused the request even after the
	// client's internal retries (e.g. a chunk-timeout window during a
	// racing write or backup swap); reload from the backing store.
	ErrRejected = client.ErrRejected
	// ErrReleased: an Object was used after Release.
	ErrReleased = client.ErrReleased
)

// resolve applies opts over the paper's defaults.
func resolve(opts []Option) core.Config {
	cfg := core.Config{
		NodesPerProxy:  20,
		DataShards:     10,
		ParityShards:   2,
		WarmupInterval: time.Minute,
		BackupInterval: 5 * time.Minute,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// New starts a deployment configured by opts.
func New(opts ...Option) (*Cache, error) {
	d, err := core.New(resolve(opts))
	if err != nil {
		return nil, err
	}
	return &Cache{d: d}, nil
}

// NewClient returns a cache client; each client maintains its own proxy
// connections and can be used concurrently. Options override the
// deployment defaults for this client only.
func (c *Cache) NewClient(opts ...ClientOption) (*Client, error) { return c.d.NewClient(opts...) }

// Deployment exposes the underlying deployment for advanced use
// (fault injection, platform stats, proxy metrics).
func (c *Cache) Deployment() *core.Deployment { return c.d }

// Clock returns the deployment's (virtual) clock.
func (c *Cache) Clock() vclock.Clock { return c.d.Clock() }

// Close shuts everything down.
func (c *Cache) Close() { c.d.Close() }
