package lambdaemu

import (
	"fmt"
	"net"
	"sync"
	"time"

	"infinicache/internal/netsim"
	"infinicache/internal/vclock"
)

// Instance is one running copy of a function — in AWS terms, a "peer
// replica" created by auto-scaling. Its locals survive between
// invocations until the provider reclaims it.
type Instance struct {
	id       string
	fn       *Function
	platform *Platform
	host     *host
	bucket   *netsim.Bucket

	// Guarded by fn.mu.
	busy       bool
	reclaimed  bool
	lastInvoke time.Time
	born       time.Time

	locals map[string]any // handler-private state; single-threaded access

	connMu sync.Mutex
	conns  []net.Conn

	done     chan struct{}
	doneOnce sync.Once
}

// ID returns the instance identity (changes whenever AWS provisions a new
// instance — the paper's §4.1 probe detects reclamation this way).
func (in *Instance) ID() string { return in.id }

func (in *Instance) trackConn(c net.Conn) {
	in.connMu.Lock()
	in.conns = append(in.conns, c)
	in.connMu.Unlock()
}

func (in *Instance) closeConns() {
	in.connMu.Lock()
	conns := in.conns
	in.conns = nil
	in.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (in *Instance) signalDone() {
	in.doneOnce.Do(func() { close(in.done) })
}

// Context is the execution environment passed to a Handler: identity,
// resource limits, the outbound-only Dial primitive, per-instance state,
// and the self-invocation API the backup protocol uses to spawn a peer
// replica.
type Context struct {
	inst    *Instance
	payload []byte
}

// InstanceID returns the running instance's unique ID.
func (c *Context) InstanceID() string { return c.inst.id }

// FunctionName returns the registered function name.
func (c *Context) FunctionName() string { return c.inst.fn.name }

// MemoryMB returns the function's configured memory.
func (c *Context) MemoryMB() int { return c.inst.fn.cfg.MemoryMB }

// Payload returns the invocation payload.
func (c *Context) Payload() []byte { return c.payload }

// Clock returns the platform clock (virtual time).
func (c *Context) Clock() vclock.Clock { return c.inst.platform.cfg.Clock }

// Done fires when the provider reclaims this instance; a handler running
// at that moment must return promptly.
func (c *Context) Done() <-chan struct{} { return c.inst.done }

// Reclaimed reports whether the instance has been reclaimed.
func (c *Context) Reclaimed() bool {
	select {
	case <-c.inst.done:
		return true
	default:
		return false
	}
}

// Locals is the instance-lifetime state map (the "warm" memory that
// InfiniCache exploits to cache chunks).
func (c *Context) Locals() map[string]any { return c.inst.locals }

// Dial opens an outbound connection throttled by the instance's and its
// VM host's bandwidth. Inbound connections do not exist: there is no
// Listen — the platform constraint that motivates InfiniCache's proxy.
func (c *Context) Dial(addr string) (net.Conn, error) {
	if c.Reclaimed() {
		return nil, fmt.Errorf("lambdaemu: instance %s reclaimed", c.inst.id)
	}
	return c.inst.platform.dialFrom(c.inst, addr)
}

// Invoke asynchronously invokes another (or the same) function via the
// provider API — step 6 of the backup protocol invokes the function's own
// name to obtain a peer replica.
func (c *Context) Invoke(function string, payload []byte) error {
	return c.inst.platform.Invoke(function, payload)
}
