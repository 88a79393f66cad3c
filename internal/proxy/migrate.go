package proxy

import (
	"context"
	"errors"
	"strings"
	"sync"

	"infinicache/internal/client"
	"infinicache/internal/cluster"
	"infinicache/internal/protocol"
)

// This file is the proxy half of the migration/recovery plane: epoch
// installation, the inbound-migration window (fallback redirects and
// DEL tombstones), and the paced outbound worker that hands moved keys
// to their new owners. The worker is a client: it reads a moved entry
// back through this proxy's own session and writes it to the new owner
// as a PUT, so migration runs on the read and write paths every GET and
// PUT exercises.
//
// Ownership and the handoff are governed by three rules:
//
//  1. A key's copy at its new owner always wins: handoff SETs ingest
//     via BeginObjectIfAbsent, so a client PUT routed by the new ring
//     can never be clobbered by the background handoff.
//  2. The old owner drops its copy only after the new owner acked every
//     chunk (or refused the key as already superseded) — at every
//     instant at least one proxy can serve the key.
//  3. While inbound migration is pending, the new owner turns a local
//     miss into a fallback redirect toward the old owner instead of a
//     MISS, and records DEL tombstones so a late migration SET cannot
//     resurrect a deleted key. The window closes when every old-epoch
//     member has sent its done marker.

// migSupersededErr is the wire text a destination answers when it
// refuses a migrated key it already holds (or has tombstoned). The
// source recognises it and drops its own copy — the destination's is
// newer.
const migSupersededErr = "proxy: migration superseded"

// Outbound migration is paced at migRateBytes per second of virtual
// time, so a rebalance storm cannot crowd out foreground traffic; the
// bucket lets migBurstBytes (an eighth of a second's worth) through
// ahead of the rate.
const (
	migRateBytes  = 32 << 20
	migBurstBytes = migRateBytes / 8
)

// SetEpoch installs a new membership epoch. prev is the epoch being
// replaced (nil for the initial install, which triggers no migration).
// Stale installs (version <= current) are ignored. When this proxy was
// a member of prev, a background worker hands every key whose ownership
// moved to its new owner; when it is a member of next, the inbound
// window opens until every other prev member reports done.
//
// The deployment layer must install the epoch on *destination* proxies
// before sources: a redirect target has to be enforcing the new epoch
// before anyone is redirected to it.
func (p *Proxy) SetEpoch(prev, next *cluster.Epoch) {
	if p.epoch.Load().Version() >= next.Version() {
		return
	}
	if prev != nil && next.Contains(p.addr) {
		expect := 0
		for _, m := range prev.Members() {
			if m.Addr != p.addr {
				expect++
			}
		}
		if expect > 0 {
			p.migMu.Lock()
			p.migVer = next.Version()
			p.migFrom = make(map[string]bool, expect)
			p.tombs = make(map[string]struct{})
			p.prevEpoch.Store(prev)
			if p.migEarlyV == p.migVer {
				for _, src := range p.migEarly {
					p.markDoneLocked(src)
				}
			}
			p.migEarly = nil
			p.migMu.Unlock()
		}
	}
	p.epoch.Store(next)
	if prev != nil && prev.Contains(p.addr) {
		p.mu.Lock()
		if !p.closed {
			p.migOut.Add(1)
			p.wg.Add(1)
			go p.migrateOut(prev, next)
		}
		p.mu.Unlock()
	}
}

// MigrationsPending counts this proxy's unfinished migration work:
// outbound workers still running plus inbound sources not yet done.
func (p *Proxy) MigrationsPending() int64 {
	n := p.migOut.Load()
	prev := p.prevEpoch.Load()
	if prev == nil {
		return n
	}
	p.migMu.Lock()
	for _, m := range prev.Members() {
		if m.Addr != p.addr && !p.migFrom[m.Addr] {
			n++
		}
	}
	p.migMu.Unlock()
	return n
}

// markMigrationDone records a source proxy's done marker for version and
// closes the inbound window once every prev-epoch member has reported.
//
// The deployment installs an epoch on one proxy after another, and a
// source with nothing to hand off sends its marker at once — so a marker
// can arrive for an epoch this proxy is about to install. It is kept
// for SetEpoch: dropped, the window it should have closed would stay
// open for good.
func (p *Proxy) markMigrationDone(version uint64, src string) {
	p.migMu.Lock()
	defer p.migMu.Unlock()
	switch {
	case version > p.migVer:
		if version != p.migEarlyV {
			p.migEarly, p.migEarlyV = nil, version
		}
		p.migEarly = append(p.migEarly, src)
	case version == p.migVer:
		p.markDoneLocked(src)
	}
}

// markDoneLocked is markMigrationDone for the installed epoch; the
// caller holds migMu.
func (p *Proxy) markDoneLocked(src string) {
	if p.migFrom == nil {
		return
	}
	p.migFrom[src] = true
	prev := p.prevEpoch.Load()
	if prev == nil {
		return
	}
	for _, m := range prev.Members() {
		if m.Addr != p.addr && !p.migFrom[m.Addr] {
			return
		}
	}
	p.prevEpoch.Store(nil)
	p.migFrom = nil
	p.tombs = nil
}

// noteTombstone records that key was deleted while the inbound window
// is open, so a migration SET arriving later must be refused.
func (p *Proxy) noteTombstone(key string) {
	p.migMu.Lock()
	if p.tombs != nil {
		p.tombs[key] = struct{}{}
	}
	p.migMu.Unlock()
}

// tombstoned reports whether key was deleted during the inbound window.
func (p *Proxy) tombstoned(key string) bool {
	p.migMu.Lock()
	defer p.migMu.Unlock()
	_, dead := p.tombs[key]
	return dead
}

// fallbackOwner resolves a local miss during the inbound window: if the
// key's previous-epoch owner has not finished handing off to us (and
// the key was not deleted meanwhile), the client should ask that owner
// directly. Returns the owner, the current epoch version, and whether a
// fallback applies.
func (p *Proxy) fallbackOwner(key string) (string, uint64, bool) {
	prev := p.prevEpoch.Load()
	if prev == nil {
		return "", 0, false
	}
	src := prev.Owner(routeKey(key))
	if src == "" || src == p.addr {
		return "", 0, false
	}
	p.migMu.Lock()
	defer p.migMu.Unlock()
	if p.migFrom == nil || p.migFrom[src] {
		return "", 0, false // the source finished; a miss here is authoritative
	}
	if _, dead := p.tombs[key]; dead {
		return "", 0, false
	}
	return src, p.epoch.Load().Version(), true
}

// queueDels distributes chunk deletions (an overwrite's, an eviction's,
// a dropped entry's) to the owning node managers.
func (p *Proxy) queueDels(dels []evictedChunk) {
	for _, d := range dels {
		if d.Node >= 0 && d.Node < len(p.nodes) {
			p.nodes[d.Node].queueDel(d.Key)
		}
	}
}

// migrateOut hands every key whose ownership moved away from this proxy
// to its new owner, then sends a done marker to every other next-epoch
// member (even ones that received nothing — their inbound window is
// waiting on us). It rescans the table until a pass finds no new moved
// keys, closing the race with PUT generations whose chunks were in
// flight when the epoch was installed.
//
// For its lifetime the worker is a client of this proxy and its peers:
// one client.Client per RS geometry it meets, all closed when it
// returns. Closing them ends its sessions at the destinations, which is
// what settles a handoff generation left incomplete there.
func (p *Proxy) migrateOut(prev, next *cluster.Epoch) {
	defer p.wg.Done()
	defer p.migOut.Add(-1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-p.done:
			cancel()
		case <-ctx.Done():
		}
	}()
	clients := make(map[[2]int]*client.Client)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	// clientFor returns the worker's RS(d+parity) client, or nil when
	// none can be built: this proxy's pool is smaller than d+parity.
	clientFor := func(d, parity int) *client.Client {
		c, ok := clients[[2]int{d, parity}]
		if !ok {
			c, _ = client.New(client.Config{
				Proxies:    []client.ProxyInfo{{Addr: p.addr, PoolSize: len(p.nodes)}},
				DataShards: d, ParityShards: parity,
				Clock: p.cfg.Clock, RequestTimeout: p.cfg.RequestTimeout, Dial: p.cfg.Dial,
			})
			clients[[2]int{d, parity}] = c
		}
		return c
	}

	// settled holds the keys no later pass needs to revisit. It is this
	// worker's alone: the deployment installs each epoch once per proxy
	// and SetEpoch ignores stale versions, so no other worker hands off
	// for this epoch, and one still running an older epoch's moves is
	// harmless — the destination's copy wins, and a source drops only
	// after acks.
	settled := make(map[string]bool)
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		migrated := 0
		for _, key := range p.table.Keys() {
			// Stripe entries route (and therefore move) with their
			// parent key, so a moved object's whole family lands on one
			// destination.
			if settled[key] || prev.Owner(routeKey(key)) != p.addr {
				continue
			}
			dst, ok := next.Member(next.Owner(routeKey(key)))
			if !ok || dst.Addr == p.addr {
				continue
			}
			if p.migrateKey(ctx, clientFor, dst, key) {
				settled[key] = true
				migrated++
			}
			if ctx.Err() != nil {
				return
			}
		}
		if migrated == 0 && pass > 0 {
			break
		}
	}

	// Done markers: every other next-epoch member is waiting on one. Any
	// pool can build an RS(1+0) client.
	marker := clientFor(1, 0)
	var wg sync.WaitGroup
	for _, m := range next.Members() {
		if m.Addr == p.addr {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			marker.HandoffDone(ctx, addr, p.addr, next.Version())
		}(m.Addr)
	}
	wg.Wait()
}

// migrateKey hands one key to its new owner dst. It reads the entry
// back through this proxy's own session — an authoritative ranged GET
// of the whole entry, which gets the session's strike ladder, degraded
// plans and loss verdicts — and writes it to dst as one handoff
// generation of all d+p chunks, so a chunk lost here arrives repaired.
// On full acknowledgement, or a refusal (dst's copy is newer), the
// local entry is dropped. Returns true when the key needs no further
// pass; a handoff that failed otherwise keeps the local copy for a
// later pass.
func (p *Proxy) migrateKey(ctx context.Context, clientFor func(d, parity int) *client.Client, dst cluster.Member, key string) bool {
	meta, ok := p.table.Lookup(key)
	if !ok {
		return true // deleted since the scan
	}
	c := clientFor(meta.DataShards, meta.TotalShards-meta.DataShards)
	if c == nil {
		p.stats.MigrationDrops.Add(1)
		return true
	}
	shipped := protocol.ShardSizeFor(meta.Size, meta.DataShards) * int64(meta.TotalShards)
	if !p.migBucket.Wait(p.cfg.Clock, p.done, int(shipped)) {
		return false // shutting down
	}
	value, err := c.Fetch(ctx, p.addr, key, meta.Size)
	switch {
	case ctx.Err() != nil:
		return false
	case errors.Is(err, client.ErrMiss):
		return true // gone since the Lookup
	case err != nil:
		// Lost, mid-write past the driver's retries, or unreadable right
		// now: dropped from this epoch's migration, once; the fallback
		// path, or plain loss handling, covers it.
		p.stats.MigrationDrops.Add(1)
		return true
	}
	// A multi-stripe head's stream geometry must survive the handoff, or
	// the destination could not plan ranged reads over the family.
	var extra []int64
	if meta.StreamSize > 0 {
		extra = []int64{meta.StreamSize, meta.StripeData}
	}
	err = c.Handoff(ctx, client.ProxyInfo{Addr: dst.Addr, PoolSize: dst.PoolSize}, key, value, extra)
	if err != nil && !strings.Contains(err.Error(), migSupersededErr) {
		return false
	}
	// Handed off, or the destination already holds a newer copy: drop
	// ours. Drop also invalidates the hot tier, so a redirect-then-
	// refetch at the new owner can never race a stale tier hit here.
	p.queueDels(p.table.Drop(key))
	if err != nil {
		p.stats.MigrationDrops.Add(1)
		return true
	}
	p.stats.MigratedKeys.Add(1)
	p.stats.MigratedBytes.Add(shipped)
	return true
}
