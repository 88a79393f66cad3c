// Package core assembles a complete InfiniCache deployment (Figure 2):
// an emulated serverless platform, one or more proxies each managing a
// pool of Lambda cache-node functions, the periodic warm-up driver
// (T_warm, §4.2), and client construction. This is the layer examples,
// benchmarks and the public API build on.
package core

import (
	"fmt"
	"net"
	"sync"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/cluster"
	"infinicache/internal/lambdaemu"
	"infinicache/internal/lambdanode"
	"infinicache/internal/netsim"
	"infinicache/internal/proxy"
	"infinicache/internal/vclock"
)

// Config describes a deployment.
type Config struct {
	// Proxies is the number of proxies; each manages NodesPerProxy
	// Lambda functions.
	Proxies       int
	NodesPerProxy int
	// NodeMemoryMB sizes every cache-node Lambda function (and its
	// accounting capacity at the proxy). The paper's production setup
	// uses 400 x 1536 MB.
	NodeMemoryMB int
	// DataShards/ParityShards select the RS(d+p) code for clients made
	// via NewClient.
	DataShards   int
	ParityShards int
	// WarmupInterval is T_warm; 0 disables the warm-up driver.
	WarmupInterval time.Duration
	// BackupInterval is T_bak; 0 disables delta-sync backups.
	BackupInterval time.Duration
	// ReclaimPolicy drives provider-side reclamation; nil disables it.
	ReclaimPolicy lambdaemu.ReclaimPolicy
	// HotTierBytes caps each proxy's resident hot-object tier; 0
	// disables it. HotMaxObjectBytes is the tier's admission size
	// threshold (0 takes the policy's default of 1 MiB).
	HotTierBytes      int64
	HotMaxObjectBytes int64
	// TimeScale compresses virtual time (0.1 = 10x faster than wall
	// clock); 0 or 1 runs in real time.
	TimeScale float64
	// Clock overrides the clock entirely (wins over TimeScale).
	Clock vclock.Clock
	// Platform tuning (zero values take lambdaemu defaults).
	ColdStartDelay  time.Duration
	WarmInvokeDelay time.Duration
	// Runtime tuning.
	BufferTime time.Duration
	// EnableRecovery turns on client-side EC chunk recovery.
	EnableRecovery bool
	// RequestTimeout bounds each client operation (0 takes the client
	// default).
	RequestTimeout time.Duration
	Seed           int64
}

func (c *Config) fillDefaults() error {
	if c.Proxies <= 0 {
		c.Proxies = 1
	}
	if c.NodesPerProxy <= 0 {
		return fmt.Errorf("core: NodesPerProxy must be positive")
	}
	if c.NodeMemoryMB <= 0 {
		c.NodeMemoryMB = 1536
	}
	if c.DataShards <= 0 {
		c.DataShards = 10
	}
	if c.ParityShards < 0 {
		return fmt.Errorf("core: negative parity shards")
	}
	if c.DataShards+c.ParityShards > c.NodesPerProxy {
		return fmt.Errorf("core: pool of %d nodes cannot hold %d chunks",
			c.NodesPerProxy, c.DataShards+c.ParityShards)
	}
	if c.Clock == nil {
		if c.TimeScale > 0 && c.TimeScale != 1 {
			c.Clock = vclock.NewScaled(c.TimeScale)
		} else {
			c.Clock = vclock.NewReal()
		}
	}
	return nil
}

// Deployment is a running InfiniCache cluster.
type Deployment struct {
	cfg      Config
	Platform *lambdaemu.Platform
	// Proxies is the live proxy set. It is mutated by AddProxy and
	// RemoveProxy under pmu; concurrent readers (the warmer, stats
	// sweeps during churn) must go through proxySnapshot.
	Proxies []*proxy.Proxy

	// network carries every byte the deployment moves — client↔proxy,
	// node↔proxy, relay and proxy↔proxy links alike — through memory: a
	// deployment is one process, and its bandwidth and latency are
	// modelled in virtual time on top (netsim.Path), not by the kernel.
	network *netsim.Network
	// faults is the chaos plane's fault engine, seeded from Config.Seed
	// and threaded through every node link and client dial. Until a
	// schedule adds a rule it costs each link one atomic load per
	// Read, Write or dial.
	faults *netsim.Faults

	// membership owns the epoch sequence; every join/leave publishes the
	// next version and installs it on all proxies (destinations first).
	membership *cluster.Membership
	handler    lambdaemu.Handler
	nextProxy  int // next proxy index for NodeName numbering
	pmu        sync.Mutex

	// clients tracks every client built via NewClient so harnesses can
	// fold client-side counters (EC recoveries, checksum failures) into
	// deployment-wide reports.
	cmu     sync.Mutex
	clients []*client.Client

	stopWarm chan struct{}
	warmWG   sync.WaitGroup
	closeOne sync.Once
}

// NodeName returns the function name of node i in proxy p's pool.
func NodeName(proxyIdx, nodeIdx int) string {
	return fmt.Sprintf("p%d-node%d", proxyIdx, nodeIdx)
}

// New builds and starts a deployment: registers every cache-node
// function, starts the proxies, and launches the warm-up driver.
func New(cfg Config) (*Deployment, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	faults := netsim.NewFaults(cfg.Clock, cfg.Seed+977)
	network := netsim.NewNetwork()
	platform := lambdaemu.New(lambdaemu.Config{
		Clock:           cfg.Clock,
		ReclaimPolicy:   cfg.ReclaimPolicy,
		Seed:            cfg.Seed,
		ColdStartDelay:  cfg.ColdStartDelay,
		WarmInvokeDelay: cfg.WarmInvokeDelay,
		Dial:            network.Dial,
		NetFaults:       faults,
	})
	handler := lambdanode.NewHandler(lambdanode.Config{
		BackupInterval: cfg.BackupInterval,
		BufferTime:     cfg.BufferTime,
	})

	d := &Deployment{
		cfg:        cfg,
		network:    network,
		faults:     faults,
		Platform:   platform,
		membership: cluster.NewMembership(),
		handler:    handler,
		stopWarm:   make(chan struct{}),
	}
	for pi := 0; pi < cfg.Proxies; pi++ {
		px, err := d.buildProxy(pi)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.Proxies = append(d.Proxies, px)
	}
	d.nextProxy = cfg.Proxies
	// Epoch v1 covers the initial proxy set. With no previous epoch the
	// install triggers no migration; it arms ownership enforcement so
	// later joins/leaves redirect stale clients instead of missing.
	e1 := d.membership.Publish(d.memberList(d.Proxies))
	for _, p := range d.Proxies {
		p.SetEpoch(nil, e1)
	}
	if cfg.WarmupInterval > 0 {
		d.warmWG.Add(1)
		go d.warmer()
	}
	return d, nil
}

// buildProxy registers proxy index pi's node functions and starts its
// proxy, listening as "proxy-<pi>": ring placement hashes member
// addresses, so a name that is the same every run (no kernel-assigned
// port) keeps key ownership the same every run.
func (d *Deployment) buildProxy(pi int) (*proxy.Proxy, error) {
	names := make([]string, d.cfg.NodesPerProxy)
	for ni := range names {
		names[ni] = NodeName(pi, ni)
		if _, err := d.Platform.Register(names[ni], lambdaemu.FunctionConfig{MemoryMB: d.cfg.NodeMemoryMB}, d.handler); err != nil {
			return nil, err
		}
	}
	return proxy.New(proxy.Config{
		Clock:             d.cfg.Clock,
		Invoker:           d.Platform,
		Nodes:             names,
		NodeMemoryMB:      d.cfg.NodeMemoryMB,
		ListenAddr:        fmt.Sprintf("proxy-%d", pi),
		Listen:            d.network.Listen,
		Dial:              d.network.Dial,
		HotTierBytes:      d.cfg.HotTierBytes,
		HotMaxObjectBytes: d.cfg.HotMaxObjectBytes,
	})
}

// memberList derives the membership view of a proxy set.
func (d *Deployment) memberList(proxies []*proxy.Proxy) []cluster.Member {
	members := make([]cluster.Member, len(proxies))
	for i, p := range proxies {
		members[i] = cluster.Member{Addr: p.Addr(), PoolSize: p.PoolSize()}
	}
	return members
}

// proxySnapshot returns the live proxy set at this instant (safe
// against concurrent AddProxy/RemoveProxy).
func (d *Deployment) proxySnapshot() []*proxy.Proxy {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	return append([]*proxy.Proxy(nil), d.Proxies...)
}

// AddProxy grows the cluster by one proxy (with its own fresh Lambda
// pool) and publishes the next membership epoch. The epoch lands on the
// joiner before the existing proxies: the joiner must be enforcing the
// new ring before any survivor redirects a client (or a migration
// stream) to it. Existing proxies then background-migrate the keys
// whose ownership moved; reads stay served throughout via fallback
// redirects. Returns the new proxy (already in Proxies).
func (d *Deployment) AddProxy() (*proxy.Proxy, error) {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	pi := d.nextProxy
	px, err := d.buildProxy(pi)
	if err != nil {
		return nil, err
	}
	d.nextProxy++
	prev := d.membership.Current()
	next := d.membership.Publish(append(d.memberList(d.Proxies), cluster.Member{Addr: px.Addr(), PoolSize: px.PoolSize()}))
	px.SetEpoch(prev, next)
	for _, p := range d.Proxies {
		p.SetEpoch(prev, next)
	}
	d.Proxies = append(d.Proxies, px)
	return px, nil
}

// removeQuiesceTimeout bounds how long RemoveProxy waits (virtual time)
// for the victim to finish streaming its keys out.
const removeQuiesceTimeout = 60 * time.Second

// RemoveProxy drains the named proxy out of the cluster: survivors
// install the shrunken epoch first (they are the migration
// destinations), then the victim, whose outbound worker streams every
// key it owned to its new owner. The call is synchronous — it returns
// after migration quiesced and the victim shut down, or with the
// timeout error (the victim is closed either way; reads of unmigrated
// keys then surface as losses, not stale data).
func (d *Deployment) RemoveProxy(addr string) error {
	d.pmu.Lock()
	idx := -1
	for i, p := range d.Proxies {
		if p.Addr() == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		d.pmu.Unlock()
		return fmt.Errorf("core: no proxy at %s", addr)
	}
	if len(d.Proxies) == 1 {
		d.pmu.Unlock()
		return fmt.Errorf("core: cannot remove the last proxy")
	}
	victim := d.Proxies[idx]
	survivors := append(append([]*proxy.Proxy(nil), d.Proxies[:idx]...), d.Proxies[idx+1:]...)
	d.Proxies = survivors
	prev := d.membership.Current()
	next := d.membership.Publish(d.memberList(survivors))
	d.pmu.Unlock()

	for _, p := range survivors {
		p.SetEpoch(prev, next)
	}
	victim.SetEpoch(prev, next)
	err := d.QuiesceMigration(removeQuiesceTimeout, victim)
	victim.Close()
	return err
}

// QuiesceMigration polls until no proxy (the live set plus any extras,
// e.g. a leaving victim) has migration work pending, or the virtual
// timeout elapses.
func (d *Deployment) QuiesceMigration(timeout time.Duration, extra ...*proxy.Proxy) error {
	deadline := d.cfg.Clock.Now().Add(timeout)
	for {
		var pending int64
		for _, p := range append(d.proxySnapshot(), extra...) {
			pending += p.MigrationsPending()
		}
		if pending == 0 {
			return nil
		}
		if d.cfg.Clock.Now().After(deadline) {
			return fmt.Errorf("core: migration not quiesced after %v (%d streams pending)", timeout, pending)
		}
		<-d.cfg.Clock.After(5 * time.Millisecond)
	}
}

// Epoch returns the current membership epoch.
func (d *Deployment) Epoch() *cluster.Epoch { return d.membership.Current() }

// warmer re-invokes every node each T_warm to keep instances cached by
// the provider (§4.2 technique 2).
func (d *Deployment) warmer() {
	defer d.warmWG.Done()
	for {
		select {
		case <-d.stopWarm:
			return
		case <-d.cfg.Clock.After(d.cfg.WarmupInterval):
		}
		for _, p := range d.proxySnapshot() {
			p.Warmup()
		}
	}
}

// Clock returns the deployment's virtual clock.
func (d *Deployment) Clock() vclock.Clock { return d.cfg.Clock }

// ProxyInfos lists the proxies for client construction.
func (d *Deployment) ProxyInfos() []client.ProxyInfo {
	proxies := d.proxySnapshot()
	infos := make([]client.ProxyInfo, len(proxies))
	for i, p := range proxies {
		infos[i] = client.ProxyInfo{Addr: p.Addr(), PoolSize: p.PoolSize()}
	}
	return infos
}

// NewClient builds a client wired to every proxy in the deployment;
// opts override the deployment-derived defaults per client.
func (d *Deployment) NewClient(opts ...client.Option) (*client.Client, error) {
	ccfg := client.Config{
		Proxies:        d.ProxyInfos(),
		DataShards:     d.cfg.DataShards,
		ParityShards:   d.cfg.ParityShards,
		Clock:          d.cfg.Clock,
		RequestTimeout: d.cfg.RequestTimeout,
		EnableRecovery: d.cfg.EnableRecovery,
		Seed:           d.cfg.Seed + 101,
	}
	// The chaos plane reaches the client↔proxy links too: refuse rules
	// matching the "client" tag make dials fail, and
	// corrupt/rot/latency/hangup rules apply to client traffic just as
	// they do to node links.
	ccfg.Dial = func(addr string) (net.Conn, error) {
		if d.faults.Refused("client") {
			return nil, fmt.Errorf("core: dial %s refused (injected fault)", addr)
		}
		raw, err := d.network.Dial(addr)
		if err != nil {
			return nil, err
		}
		return netsim.NewFaultConn(raw, nil, d.faults, "client"), nil
	}
	cl, err := client.New(ccfg, opts...)
	if err != nil {
		return nil, err
	}
	d.cmu.Lock()
	d.clients = append(d.clients, cl)
	d.cmu.Unlock()
	return cl, nil
}

// Clients returns every client built via NewClient (closed ones
// included — their counters remain readable).
func (d *Deployment) Clients() []*client.Client {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	return append([]*client.Client(nil), d.clients...)
}

// Faults exposes the deployment's fault engine for chaos scheduling
// (never nil).
func (d *Deployment) Faults() *netsim.Faults { return d.faults }

// NumProxies returns the current live proxy count.
func (d *Deployment) NumProxies() int {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	return len(d.Proxies)
}

// JoinProxies grows the cluster by n proxies, one AddProxy (and one
// epoch) each, and returns how many joined.
func (d *Deployment) JoinProxies(n int) (int, error) {
	for i := 0; i < n; i++ {
		if _, err := d.AddProxy(); err != nil {
			return i, err
		}
	}
	return n, nil
}

// LeaveProxies drains n proxies out of the cluster, newest member
// first, one RemoveProxy (and one epoch) each; RemoveProxy refuses the
// last one standing. It returns how many left.
func (d *Deployment) LeaveProxies(n int) (int, error) {
	for i := 0; i < n; i++ {
		infos := d.ProxyInfos()
		if err := d.RemoveProxy(infos[len(infos)-1].Addr); err != nil {
			return i, err
		}
	}
	return n, nil
}

// SeverProxyConns abruptly closes every established connection (client
// sessions and node links) on proxy i, modelling a proxy crash+restart
// with its in-memory state intact. Clients observe connection resets
// and recover through their normal redial/retry path. Returns the
// number of connections severed; 0 if i is out of range.
func (d *Deployment) SeverProxyConns(i int) int {
	ps := d.proxySnapshot()
	if i < 0 || i >= len(ps) {
		return 0
	}
	return ps[i].SeverConns()
}

// Close stops the warmer, proxies and platform.
func (d *Deployment) Close() {
	d.closeOne.Do(func() {
		close(d.stopWarm)
		d.warmWG.Wait()
		for _, p := range d.proxySnapshot() {
			p.Close()
		}
		if d.Platform != nil {
			d.Platform.Close()
		}
	})
}
