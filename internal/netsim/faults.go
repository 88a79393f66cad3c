package netsim

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"infinicache/internal/vclock"
)

// Fault kinds injectable on a simulated link. Each rule names a tag
// pattern (connections are tagged at creation, e.g. with the Lambda
// function name they serve) and an expiry in virtual time, so a chaos
// schedule can open and close fault windows deterministically.
const (
	// FaultLatency delays every matching Write by a fixed extra amount
	// of virtual time (a slow / black-holed node).
	FaultLatency = "latency"
	// FaultCorrupt flips bits in matching writes at a per-write
	// probability — garbled frames in transit. The corruption happens in
	// a copy; the caller's buffer (often a shared prebuilt wire image)
	// is never mutated.
	FaultCorrupt = "corrupt"
	// FaultRot flips bits in matching *reads* at a per-read probability:
	// data is damaged on its way into the node, so the store keeps
	// garbage — the persistent-corruption case that only erasure repair
	// can heal.
	FaultRot = "rot"
	// FaultHangup kills a matching connection mid-write: half the bytes
	// go out, then the socket closes — a truncated frame followed by a
	// connection drop.
	FaultHangup = "hangup"
	// FaultRefuse makes new dials for matching tags fail (consulted by
	// the dialer, not the conn).
	FaultRefuse = "refuse"
)

type faultRule struct {
	pattern string // tag pattern: exact, or prefix with trailing '*', or "*"
	kind    string
	rate    float64       // per-call probability for corrupt/rot/hangup
	extra   time.Duration // added write delay for latency rules
	until   time.Time     // virtual expiry; zero = forever
}

// MatchTag reports whether tag matches pattern: "*" matches anything, a
// trailing '*' matches by prefix, anything else matches exactly. Shared
// by the fault rules, the chaos scheduler, and lambdaemu's reclaim
// storms so one target syntax names nodes everywhere.
func MatchTag(pattern, tag string) bool {
	if pattern == "*" || pattern == tag {
		return true
	}
	if n := len(pattern); n > 0 && pattern[n-1] == '*' {
		return len(tag) >= n-1 && tag[:n-1] == pattern[:n-1]
	}
	return false
}

// Faults is a seeded, virtual-time fault rule set consulted by every
// FaultConn on each Read/Write and by dialers before connecting. All
// randomness flows from one seeded source, so a fixed schedule replays
// the same fault stream for the same interleaving of transfers. A nil
// *Faults is an engine that never faults.
type Faults struct {
	clock vclock.Clock
	// armed is set by the first Add. Until then a consult is this one
	// atomic load: no lock, no draw from rng, so an engine nothing is
	// scheduled against costs its links nothing and leaves a seeded
	// run's fault stream where it was.
	armed atomic.Bool

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []faultRule
	injected map[string]int64
}

// NewFaults returns an empty fault set on the given clock.
func NewFaults(clock vclock.Clock, seed int64) *Faults {
	return &Faults{
		clock:    clock,
		rng:      rand.New(rand.NewSource(seed)),
		injected: make(map[string]int64),
	}
}

// Add installs a rule. kind is one of the Fault* constants; rate is the
// per-call injection probability (ignored for latency rules), extra the
// added delay (latency rules only), and window how long the rule lives
// in virtual time (0 = forever).
func (f *Faults) Add(pattern, kind string, rate float64, extra, window time.Duration) {
	var until time.Time
	if window > 0 {
		until = f.clock.Now().Add(window)
	}
	f.mu.Lock()
	f.rules = append(f.rules, faultRule{pattern: pattern, kind: kind, rate: rate, extra: extra, until: until})
	f.mu.Unlock()
	f.armed.Store(true)
}

// live reports whether f has any rule to consult.
func (f *Faults) live() bool { return f != nil && f.armed.Load() }

// Counts snapshots the per-kind injected-fault counters.
func (f *Faults) Counts() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.injected))
	for k, v := range f.injected {
		out[k] = v
	}
	return out
}

// Refused reports (and counts) whether a new dial for tag should be
// refused under the current rules.
func (f *Faults) Refused(tag string) bool {
	if !f.live() {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock.Now()
	for _, r := range f.rules {
		if r.kind == FaultRefuse && MatchTag(r.pattern, tag) && (r.until.IsZero() || now.Before(r.until)) {
			f.injected[FaultRefuse]++
			return true
		}
	}
	return false
}

// writePlan is the outcome of consulting the rules for one Write.
type writePlan struct {
	delay  time.Duration
	buf    []byte // corrupted copy to send instead, or nil
	hangup bool   // kill the connection after a partial write
}

// planWrite rolls the dice for one write of b on a connection tagged
// tag. Corruption copies b before flipping bits.
func (f *Faults) planWrite(tag string, b []byte) writePlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	var p writePlan
	now := f.clock.Now()
	for _, r := range f.rules {
		if !MatchTag(r.pattern, tag) || (!r.until.IsZero() && !now.Before(r.until)) {
			continue
		}
		switch r.kind {
		case FaultLatency:
			if r.extra > p.delay {
				p.delay = r.extra
				f.injected[FaultLatency]++
			}
		case FaultCorrupt:
			if len(b) > 0 && f.rng.Float64() < r.rate {
				if p.buf == nil {
					p.buf = append([]byte(nil), b...)
				}
				p.buf[f.rng.Intn(len(p.buf))] ^= 1 << uint(f.rng.Intn(8))
				f.injected[FaultCorrupt]++
			}
		case FaultHangup:
			if f.rng.Float64() < r.rate {
				p.hangup = true
				f.injected[FaultHangup]++
			}
		}
	}
	return p
}

// planRead rolls the dice for the rot direction: n bytes just read into
// b on a connection tagged tag; bits may be flipped in place (the
// buffer is the reader's own, freshly filled).
func (f *Faults) planRead(tag string, b []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock.Now()
	for _, r := range f.rules {
		if r.kind != FaultRot || !MatchTag(r.pattern, tag) || (!r.until.IsZero() && !now.Before(r.until)) {
			continue
		}
		if len(b) > 0 && f.rng.Float64() < r.rate {
			b[f.rng.Intn(len(b))] ^= 1 << uint(f.rng.Intn(8))
			f.injected[FaultRot]++
		}
	}
}

// errInjectedHangup marks a chaos-injected connection kill.
var errInjectedHangup = fmt.Errorf("netsim: injected connection hangup")

// FaultConn is the one emulated link: it wraps a net.Conn so every
// Write is throttled through a Path (reads are not; the sender side
// paces the wire) and filtered by a tagged fault engine: writes may be
// delayed, bit-flipped, or cut short with a connection kill; reads may
// be bit-flipped (rot).
type FaultConn struct {
	net.Conn
	path   *Path
	faults *Faults
	tag    string
}

// NewFaultConn wraps inner with throttling through path and fault
// injection from faults under the given tag. Either may be nil: a nil
// path does not throttle, and a nil or rule-less engine never faults.
func NewFaultConn(inner net.Conn, path *Path, faults *Faults, tag string) *FaultConn {
	return &FaultConn{Conn: inner, path: path, faults: faults, tag: tag}
}

func (c *FaultConn) Write(b []byte) (int, error) {
	if c.path != nil {
		c.path.Transfer(len(b))
	}
	if !c.faults.live() {
		return c.Conn.Write(b)
	}
	p := c.faults.planWrite(c.tag, b)
	if p.delay > 0 {
		c.faults.clock.Sleep(p.delay)
	}
	out := b
	if p.buf != nil {
		out = p.buf
	}
	if p.hangup {
		// Truncate mid-frame, then kill the socket: the peer sees a
		// garbled tail and then EOF.
		n, _ := c.Conn.Write(out[:len(out)/2])
		c.Conn.Close()
		return n, errInjectedHangup
	}
	n, err := c.Conn.Write(out)
	if n > len(b) {
		n = len(b) // report against the caller's buffer
	}
	return n, err
}

func (c *FaultConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.faults.live() {
		c.faults.planRead(c.tag, b[:n])
	}
	return n, err
}
