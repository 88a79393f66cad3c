// Package cluster implements versioned membership for the proxy tier.
//
// A cluster epoch is an immutable snapshot of the member set plus a
// consistent-hash ring built over it; each epoch carries a
// monotonically increasing version. Proxies join or leave by publishing
// a new epoch; clients learn about epochs lazily — a request routed by
// a stale ring gets a WRONG_OWNER redirect carrying the current
// version, at which point the client re-fetches the ring (RING frames)
// and retries. Plane (plane.go) single-flights per-key work — the
// client's degraded-GET repairs, the replay engine's miss backfills — so
// concurrent attempts coalesce.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"infinicache/internal/hashring"
)

// Member is one proxy in the cluster: its listen address and the size
// of its Lambda pool (clients need the pool size to place chunks).
type Member struct {
	Addr     string
	PoolSize int
}

// Epoch is an immutable membership snapshot. The ring is built with the
// same construction the client uses (hashring.New(0) keyed on proxy
// address), so an epoch-driven proxy and an epoch-driven client always
// agree on ownership.
type Epoch struct {
	version uint64
	members []Member
	ring    *hashring.Ring
	byAddr  map[string]Member
}

// NewEpoch builds an epoch over members at the given version. The
// member list is copied and sorted by address so equal member sets
// encode identically regardless of publish order.
func NewEpoch(version uint64, members []Member) *Epoch {
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Addr < ms[j].Addr })
	e := &Epoch{
		version: version,
		members: ms,
		ring:    hashring.New(0),
		byAddr:  make(map[string]Member, len(ms)),
	}
	for _, m := range ms {
		e.ring.Add(m.Addr)
		e.byAddr[m.Addr] = m
	}
	return e
}

// Version returns the epoch's version.
func (e *Epoch) Version() uint64 { return e.version }

// Members returns a copy of the member list, sorted by address.
func (e *Epoch) Members() []Member { return append([]Member(nil), e.members...) }

// Member looks up a member by address.
func (e *Epoch) Member(addr string) (Member, bool) {
	m, ok := e.byAddr[addr]
	return m, ok
}

// Contains reports whether addr is a member of this epoch.
func (e *Epoch) Contains(addr string) bool {
	_, ok := e.byAddr[addr]
	return ok
}

// Owner returns the address owning key under this epoch's ring, or ""
// for an empty epoch.
func (e *Epoch) Owner(key string) string {
	return e.ring.Locate(key)
}

// Encode serialises the epoch for a RING reply. The format is a
// line-oriented text payload: a version line followed by one member
// line per proxy.
//
//	v <version>
//	m <addr> <poolSize>
func (e *Epoch) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "v %d\n", e.version)
	for _, m := range e.members {
		fmt.Fprintf(&b, "m %s %d\n", m.Addr, m.PoolSize)
	}
	return []byte(b.String())
}

// DecodeEpoch parses an Encode payload back into an epoch.
func DecodeEpoch(raw []byte) (*Epoch, error) {
	var version uint64
	var members []Member
	sawVersion := false
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "v "):
			v, err := strconv.ParseUint(line[2:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad version line %q: %w", line, err)
			}
			version, sawVersion = v, true
		case strings.HasPrefix(line, "m "):
			fields := strings.Fields(line[2:])
			if len(fields) != 2 {
				return nil, fmt.Errorf("cluster: bad member line %q", line)
			}
			pool, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("cluster: bad pool size in %q: %w", line, err)
			}
			members = append(members, Member{Addr: fields[0], PoolSize: pool})
		default:
			return nil, fmt.Errorf("cluster: unknown line %q", line)
		}
	}
	if !sawVersion {
		return nil, fmt.Errorf("cluster: payload missing version line")
	}
	return NewEpoch(version, members), nil
}

// Membership owns the sequence of epochs for a cluster. Publish is the
// single point where versions advance, so they are strictly monotonic.
type Membership struct {
	mu  sync.Mutex
	cur *Epoch
}

// NewMembership returns an empty membership (no current epoch).
func NewMembership() *Membership { return &Membership{} }

// Current returns the latest published epoch, or nil before the first
// Publish.
func (m *Membership) Current() *Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// Publish installs a new epoch over members at version current+1
// (version 1 for the first publish) and returns it.
func (m *Membership) Publish(members []Member) *Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	var v uint64 = 1
	if m.cur != nil {
		v = m.cur.version + 1
	}
	m.cur = NewEpoch(v, members)
	return m.cur
}
