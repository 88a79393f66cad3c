// Package lambdaemu emulates the serverless computing platform
// (AWS Lambda) that InfiniCache runs on, reproducing every platform
// behaviour the paper's design reacts to:
//
//   - Functions are registered handlers; instances run as goroutines and
//     keep in-memory state between invocations ("warm" function caching).
//   - Instances cannot accept inbound connections: the only network
//     primitive a handler gets is Context.Dial (outbound only, over
//     whatever transport Config.Dial reaches), which is why InfiniCache
//     needs a proxy at all.
//   - Invoking a busy function auto-scales a new peer-replica instance —
//     the mechanism the §4.2 backup protocol rides on.
//   - The provider may reclaim idle instances at any time, driven by a
//     pluggable ReclaimPolicy modelling the three regimes observed in
//     §4.1 (6-hour spikes, Zipf-per-minute, Poisson-per-minute).
//   - Instances are bin-packed onto ~3 GB VM hosts whose NIC bandwidth is
//     shared by co-located instances (the contention of Figure 4); each
//     instance's own bandwidth scales with its memory size (50-160 MB/s).
//   - A billing ledger charges per invocation plus GB-seconds with
//     durations rounded up to 100 ms billing cycles; function startup
//     time is not billed (§2.2).
package lambdaemu

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"infinicache/internal/netsim"
	"infinicache/internal/vclock"
)

// Defaults mirroring the paper's measurements.
const (
	DefaultHostMemoryMB    = 3008                   // "approximately 3 GB" (§3.1)
	DefaultColdStartDelay  = 150 * time.Millisecond // cold-start penalty
	DefaultWarmInvokeDelay = 13 * time.Millisecond  // warm invoke (§5.1)
	DefaultMaxIdle         = 27 * time.Minute       // idle lifetime without warm-up (§4.1)
	DefaultNetworkLatency  = 500 * time.Microsecond // intra-VPC one-way latency
	DefaultFunctionTimeout = 900 * time.Second      // Lambda hard cap (§2.2)
	// DefaultAutoScaleDelay is how long an invocation waits for a warm
	// instance to free up before scaling out a fresh (empty) one — AWS
	// briefly queues rather than eagerly spawning, and warm instances are
	// reused most-recently-used first.
	DefaultAutoScaleDelay = 3 * time.Second
)

// Config parameterises a Platform.
type Config struct {
	Clock           vclock.Clock
	ColdStartDelay  time.Duration // 0 = DefaultColdStartDelay
	WarmInvokeDelay time.Duration // 0 = DefaultWarmInvokeDelay
	ReclaimPolicy   ReclaimPolicy // nil disables policy-driven reclaiming
	Seed            int64
	// Dial is the network handlers reach through Context.Dial (a
	// netsim.Network's Dial in a deployment); the platform throttles and
	// fault-filters what it returns. nil leaves handlers without a
	// network: every Context.Dial fails.
	Dial func(addr string) (net.Conn, error)
	// NetFaults is consulted on every handler Dial (refusal rules,
	// tagged by function name) and every byte moved on the resulting
	// connections (corruption/latency/hangup rules) — the chaos plane's
	// hook into the platform's network edge. nil never faults.
	NetFaults *netsim.Faults
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.ColdStartDelay == 0 {
		c.ColdStartDelay = DefaultColdStartDelay
	}
	if c.WarmInvokeDelay == 0 {
		c.WarmInvokeDelay = DefaultWarmInvokeDelay
	}
}

// FunctionConfig is the per-function resource configuration.
type FunctionConfig struct {
	MemoryMB int           // 128..3008 in AWS; bandwidth derives from this
	Timeout  time.Duration // 0 = DefaultFunctionTimeout
}

// Handler is the function body. It runs once per invocation; instance
// state placed in Context.Locals survives across invocations until the
// instance is reclaimed. The handler must return promptly after
// Context.Done() fires (forced reclaim while running).
type Handler func(ctx *Context, payload []byte)

// Invoker abstracts Platform.Invoke for components (proxy, runtime) that
// trigger invocations without owning the platform.
type Invoker interface {
	Invoke(function string, payload []byte) error
}

// Platform is the emulated FaaS provider.
type Platform struct {
	cfg Config

	mu         sync.Mutex
	fns        map[string]*Function
	hosts      []*host
	nextInst   int64
	rng        *rand.Rand
	closed     bool
	reclaimLog []ReclaimEvent

	ledger *Ledger

	stopReclaim chan struct{}
	reclaimWG   sync.WaitGroup
}

// ReclaimEvent records one instance reclamation, for experiment harnesses.
type ReclaimEvent struct {
	Time     time.Time
	Function string
	Instance string
	Reason   string // "policy", "idle", "forced", "shutdown"
}

type host struct {
	id     int
	freeMB int
	bucket *netsim.Bucket
	count  int // resident instances
}

// Function is a registered Lambda function (one InfiniCache cache node).
type Function struct {
	name    string
	handler Handler
	cfg     FunctionConfig

	mu        sync.Mutex
	instances []*Instance
	// idleCh is pulsed whenever an instance finishes an invocation so
	// queued invokes can grab it instead of scaling out.
	idleCh chan struct{}
}

// New creates a Platform and starts its reclaim daemon when a policy is
// configured.
func New(cfg Config) *Platform {
	cfg.fillDefaults()
	p := &Platform{
		cfg:         cfg,
		fns:         make(map[string]*Function),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		ledger:      NewLedger(),
		stopReclaim: make(chan struct{}),
	}
	if cfg.ReclaimPolicy != nil {
		p.reclaimWG.Add(1)
		go p.reclaimDaemon()
	}
	return p
}

// Clock returns the platform's clock.
func (p *Platform) Clock() vclock.Clock { return p.cfg.Clock }

// Ledger returns the billing ledger.
func (p *Platform) Ledger() *Ledger { return p.ledger }

// Register adds a function. Registering an existing name is an error.
func (p *Platform) Register(name string, cfg FunctionConfig, h Handler) (*Function, error) {
	if cfg.MemoryMB <= 0 {
		return nil, fmt.Errorf("lambdaemu: function %q needs MemoryMB > 0", name)
	}
	if cfg.MemoryMB > DefaultHostMemoryMB {
		return nil, fmt.Errorf("lambdaemu: function %q memory %d MB exceeds host capacity %d MB",
			name, cfg.MemoryMB, DefaultHostMemoryMB)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultFunctionTimeout
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("lambdaemu: platform closed")
	}
	if _, dup := p.fns[name]; dup {
		return nil, fmt.Errorf("lambdaemu: function %q already registered", name)
	}
	fn := &Function{name: name, handler: h, cfg: cfg, idleCh: make(chan struct{}, 1)}
	p.fns[name] = fn
	return fn, nil
}

// ErrUnknownFunction is returned when invoking an unregistered function.
var ErrUnknownFunction = errors.New("lambdaemu: unknown function")

// Invoke asynchronously invokes a function, reusing a warm idle instance
// when one exists and auto-scaling a fresh (cold) instance otherwise —
// AWS's Event-style invocation, which is how the proxy wakes cache nodes.
func (p *Platform) Invoke(function string, payload []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("lambdaemu: platform closed")
	}
	fn, ok := p.fns[function]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownFunction, function)
	}

	inst, cold, err := p.acquireInstance(fn)
	if err != nil {
		return err
	}
	go p.runInvocation(inst, cold, payload)
	return nil
}

// acquireInstance finds an idle warm instance (most-recently-used first,
// AWS's observed routing) or, after briefly queueing for one to free up,
// provisions a new one.
func (p *Platform) acquireInstance(fn *Function) (*Instance, bool, error) {
	deadline := p.cfg.Clock.Now().Add(DefaultAutoScaleDelay)
	for {
		fn.mu.Lock()
		var best *Instance
		anyAlive := false
		for _, in := range fn.instances {
			if in.reclaimed {
				continue
			}
			anyAlive = true
			if !in.busy && (best == nil || in.lastInvoke.After(best.lastInvoke)) {
				best = in
			}
		}
		if best != nil {
			best.busy = true
			best.lastInvoke = p.cfg.Clock.Now()
			fn.mu.Unlock()
			return best, false, nil
		}
		fn.mu.Unlock()
		if !anyAlive {
			break // nothing warm; cold-start immediately
		}
		remain := deadline.Sub(p.cfg.Clock.Now())
		if remain <= 0 {
			break // queued long enough; scale out
		}
		select {
		case <-fn.idleCh:
		case <-p.cfg.Clock.After(remain):
		}
	}

	// Cold path: place a fresh instance on a host.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errors.New("lambdaemu: platform closed")
	}
	h := p.placeLocked(fn.cfg.MemoryMB)
	p.nextInst++
	id := fmt.Sprintf("%s@%d", fn.name, p.nextInst)
	p.mu.Unlock()

	in := &Instance{
		id:       id,
		fn:       fn,
		platform: p,
		host:     h,
		bucket:   netsim.NewBucket(netsim.BandwidthForMemory(fn.cfg.MemoryMB)),
		locals:   make(map[string]any),
		done:     make(chan struct{}),
		busy:     true,
		born:     p.cfg.Clock.Now(),
	}
	in.lastInvoke = in.born

	fn.mu.Lock()
	fn.instances = append(fn.instances, in)
	fn.mu.Unlock()
	return in, true, nil
}

// placeLocked assigns memMB onto the first host with room (greedy
// first-fit, matching AWS's observed bin-packing), creating a host when
// none fits. Caller holds p.mu.
func (p *Platform) placeLocked(memMB int) *host {
	for _, h := range p.hosts {
		if h.freeMB >= memMB {
			h.freeMB -= memMB
			h.count++
			return h
		}
	}
	h := &host{
		id:     len(p.hosts),
		freeMB: DefaultHostMemoryMB - memMB,
		bucket: netsim.NewBucket(netsim.HostBandwidth),
		count:  1,
	}
	p.hosts = append(p.hosts, h)
	return h
}

func (p *Platform) runInvocation(in *Instance, cold bool, payload []byte) {
	// Startup latency is experienced by callers but not billed.
	if cold {
		p.cfg.Clock.Sleep(p.cfg.ColdStartDelay)
	} else {
		p.cfg.Clock.Sleep(p.cfg.WarmInvokeDelay)
	}
	start := p.cfg.Clock.Now()
	ctx := &Context{inst: in, payload: payload}
	func() {
		// A crashing handler must not take the emulator down; AWS would
		// surface a function error.
		defer func() { recover() }()
		in.fn.handler(ctx, payload)
	}()
	dur := p.cfg.Clock.Since(start)
	p.ledger.Record(in.fn.name, in.fn.cfg.MemoryMB, dur)

	in.fn.mu.Lock()
	in.busy = false
	in.lastInvoke = p.cfg.Clock.Now()
	in.fn.mu.Unlock()
	select {
	case in.fn.idleCh <- struct{}{}:
	default:
	}
}

// InstanceCount returns alive (non-reclaimed) instance count for a
// function, or total across all functions when name is empty.
func (p *Platform) InstanceCount(name string) int {
	p.mu.Lock()
	fns := make([]*Function, 0, len(p.fns))
	if name == "" {
		for _, fn := range p.fns {
			fns = append(fns, fn)
		}
	} else if fn, ok := p.fns[name]; ok {
		fns = append(fns, fn)
	}
	p.mu.Unlock()
	n := 0
	for _, fn := range fns {
		fn.mu.Lock()
		for _, in := range fn.instances {
			if !in.reclaimed {
				n++
			}
		}
		fn.mu.Unlock()
	}
	return n
}

// HostCount returns the number of provisioned VM hosts.
func (p *Platform) HostCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.hosts)
}

// HostsTouched returns how many distinct hosts the alive instances of the
// given functions occupy — the x-axis of Figure 4.
func (p *Platform) HostsTouched(functions []string) int {
	seen := make(map[int]bool)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, name := range functions {
		fn, ok := p.fns[name]
		if !ok {
			continue
		}
		fn.mu.Lock()
		for _, in := range fn.instances {
			if !in.reclaimed {
				seen[in.host.id] = true
			}
		}
		fn.mu.Unlock()
	}
	return len(seen)
}

// ReclaimLog returns a copy of all reclaim events so far.
func (p *Platform) ReclaimLog() []ReclaimEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ReclaimEvent(nil), p.reclaimLog...)
}

// Close stops the reclaim daemon and reclaims every instance.
func (p *Platform) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stopReclaim)
	fns := make([]*Function, 0, len(p.fns))
	for _, fn := range p.fns {
		fns = append(fns, fn)
	}
	p.mu.Unlock()
	p.reclaimWG.Wait()
	for _, fn := range fns {
		fn.mu.Lock()
		insts := append([]*Instance(nil), fn.instances...)
		fn.mu.Unlock()
		for _, in := range insts {
			p.reclaimInstance(in, "shutdown")
		}
	}
}

// dialFrom is the outbound-only network primitive handed to handlers:
// a Config.Dial connection throttled through the instance's own
// bandwidth bucket and its VM host's shared bucket.
func (p *Platform) dialFrom(in *Instance, addr string) (net.Conn, error) {
	if p.cfg.Dial == nil {
		return nil, errors.New("lambdaemu: platform has no network (Config.Dial is nil)")
	}
	if p.cfg.NetFaults.Refused(in.fn.name) {
		return nil, fmt.Errorf("lambdaemu: dial refused (injected fault) for %s", in.fn.name)
	}
	raw, err := p.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	path := &netsim.Path{
		Clock:   p.cfg.Clock,
		Latency: DefaultNetworkLatency,
		Buckets: []*netsim.Bucket{in.host.bucket, in.bucket},
	}
	// Tag the conn with the function name so per-node fault rules
	// (corrupt/rot/latency/hangup) can target it.
	c := netsim.NewFaultConn(raw, path, p.cfg.NetFaults, in.fn.name)
	in.trackConn(c)
	return c, nil
}
