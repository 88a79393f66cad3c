package proxy

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"infinicache/internal/cluster"
	"infinicache/internal/lambdanode"
	"infinicache/internal/netsim"
	"infinicache/internal/protocol"
)

// TestEpochWithoutSetEpoch: a proxy nobody installs an epoch on still
// has one — version 0, itself alone — which it answers RING with, and
// since it owns every key under it, it serves every key and redirects
// none.
func TestEpochWithoutSetEpoch(t *testing.T) {
	p, c := warmStack(t, &lambdanode.WarmPool{}, 4, Config{}, hotClient)
	raw, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := protocol.NewConn(raw)
	defer conn.Close()
	if err := conn.Send(&protocol.Message{Type: protocol.TJoinClient}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&protocol.Message{Type: protocol.TRing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil || m.Type != protocol.TRing || m.Seq != 1 {
		t.Fatalf("RING answered %v, %v", m, err)
	}
	e, err := cluster.DecodeEpoch(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Member{{Addr: p.Addr(), PoolSize: 4}}
	if m.Arg(0) != 0 || e.Version() != 0 || fmt.Sprint(e.Members()) != fmt.Sprint(want) {
		t.Fatalf("RING = v%d (args %v) %v, want v0 %v", e.Version(), m.Args, e.Members(), want)
	}

	ctx := context.Background()
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("own/%d", i)
		if err := c.PutCtx(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if got, err := c.GetCtx(ctx, key); err != nil || string(got) != key {
			t.Fatalf("GET %s = %q, %v", key, got, err)
		}
	}
	if n := p.Stats().Redirects.Load(); n != 0 {
		t.Fatalf("%d redirects from a proxy that owns every key", n)
	}
}

// TestDoneMarkerBeforeEpochInstall: the deployment installs an epoch on
// its proxies one after another, so a peer that got it first and has
// nothing to stream can deliver its done marker before this proxy has
// installed the same epoch. The marker must still close the inbound
// window it was sent for once the install arrives.
func TestDoneMarkerBeforeEpochInstall(t *testing.T) {
	nw := netsim.NewNetwork() // peers are names nobody listens on: dials are refused at once
	p, err := New(Config{
		Invoker:      invokerFunc(func(string, []byte) error { return nil }),
		Nodes:        []string{"test-node"},
		NodeMemoryMB: 128,
		ListenAddr:   "proxy-0",
		Listen:       nw.Listen,
		Dial:         nw.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ms := cluster.NewMembership()
	old := []cluster.Member{{Addr: "proxy-0", PoolSize: 1}, {Addr: "proxy-1", PoolSize: 1}}
	e1 := ms.Publish(old)
	p.SetEpoch(nil, e1)
	e2 := ms.Publish(append(old, cluster.Member{Addr: "proxy-2", PoolSize: 1}))

	p.markMigrationDone(e2.Version(), "proxy-1")
	p.SetEpoch(e1, e2)
	waitUntil(t, "the inbound window to close on the early done marker", func() bool { return p.MigrationsPending() == 0 })
	if _, _, fallback := p.fallbackOwner("any-key"); fallback {
		t.Fatal("inbound window still open after every source reported done")
	}
}

// TestUnfetchableKeyDropsOncePerEpoch: a moved key whose fetch cannot
// gather d chunks is dropped from its epoch's migration once. The
// worker's rescan passes skip it, so MigrationDrops counts 1 per epoch
// that moves it, not 1 per pass. The pools hold the key's RS(2+1)
// geometry, so it is the read that drops it (busy-write past the op
// driver's retries), not a client that cannot be built.
func TestUnfetchableKeyDropsOncePerEpoch(t *testing.T) {
	nw := netsim.NewNetwork()
	newProxy := func(addr string) *Proxy {
		p, err := New(Config{
			Invoker:      invokerFunc(func(string, []byte) error { return nil }),
			Nodes:        []string{"n0", "n1", "n2"},
			NodeMemoryMB: 128,
			ListenAddr:   addr,
			Listen:       nw.Listen,
			Dial:         nw.Dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	p0, p1 := newProxy("proxy-0"), newProxy("proxy-1")
	alone := []cluster.Member{{Addr: "proxy-0", PoolSize: 3}}
	both := append(alone, cluster.Member{Addr: "proxy-1", PoolSize: 3})

	// A key the two-proxy ring moves to proxy-1, which proxy-0 holds
	// with one of its d=2 chunks committed: mid-write, so unfetchable.
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); cluster.NewEpoch(0, both).Owner(k) == "proxy-1" {
			key = k
		}
	}
	_, epoch, _ := p0.table.BeginObject(key, 100, 2, 3, 0, 0)
	p0.table.Reserve(0, 50, key)
	p0.table.CommitChunk(key, 0, 0, 50, epoch, 0)

	ms := cluster.NewMembership()
	cur := ms.Publish(alone)
	p0.SetEpoch(nil, cur)
	// install publishes members and installs the epoch destinations
	// first, then waits for every migration it started to finish.
	install := func(members []cluster.Member) {
		t.Helper()
		next := ms.Publish(members)
		for _, member := range []bool{true, false} {
			for _, p := range []*Proxy{p1, p0} {
				if next.Contains(p.Addr()) == member {
					p.SetEpoch(cur, next)
				}
			}
		}
		cur = next
		waitUntil(t, fmt.Sprintf("epoch v%d's migration to finish", next.Version()), func() bool {
			return p0.MigrationsPending() == 0 && p1.MigrationsPending() == 0
		})
	}

	install(both) // v2: the key moves to proxy-1
	if n := p0.Stats().MigrationDrops.Load(); n != 1 {
		t.Fatalf("MigrationDrops = %d after one epoch moved the unfetchable key, want 1", n)
	}
	install(alone) // v3: proxy-1 leaves; proxy-0 still owns the key
	install(both)  // v4: the key moves again
	if n := p0.Stats().MigrationDrops.Load(); n != 2 {
		t.Fatalf("MigrationDrops = %d after two epochs moved the unfetchable key, want 2", n)
	}
	if _, ok := p0.table.Lookup(key); !ok {
		t.Fatal("a dropped migration lost the source's copy")
	}
}

// movedKey returns a key that the ring of src and dst gives to dst.
func movedKey(src, dst *Proxy) string {
	ring := cluster.NewEpoch(0, []cluster.Member{
		{Addr: src.Addr(), PoolSize: src.PoolSize()}, {Addr: dst.Addr(), PoolSize: dst.PoolSize()},
	})
	for i := 0; ; i++ {
		if k := fmt.Sprintf("moved/%d", i); ring.Owner(k) == dst.Addr() {
			return k
		}
	}
}

// joinRing replaces src's ring of itself alone with the ring of src and
// dst, installed on the destination first as a deployment does, and
// waits for the migration it starts to finish.
func joinRing(t *testing.T, src, dst *Proxy) {
	t.Helper()
	a := cluster.Member{Addr: src.Addr(), PoolSize: src.PoolSize()}
	b := cluster.Member{Addr: dst.Addr(), PoolSize: dst.PoolSize()}
	ms := cluster.NewMembership()
	alone := ms.Publish([]cluster.Member{a})
	both := ms.Publish([]cluster.Member{a, b})
	dst.SetEpoch(alone, both)
	src.SetEpoch(alone, both)
	waitUntil(t, "the migration to finish", func() bool {
		return src.MigrationsPending() == 0 && dst.MigrationsPending() == 0
	})
}

// TestHandoffRepairsLostChunk: a moved entry that lost a data chunk at
// its source is read back through a degraded plan and arrives at its new
// owner with all d+p chunks, readable there.
func TestHandoffRepairsLostChunk(t *testing.T) {
	src, c := warmStack(t, &lambdanode.WarmPool{}, 4, Config{}, hotClient)
	dst, dc := warmStack(t, &lambdanode.WarmPool{}, 4, Config{}, hotClient)
	ctx := context.Background()
	key := movedKey(src, dst)
	val := bytes.Repeat([]byte("handoff/"), 100)
	if err := c.PutCtx(ctx, key, val); err != nil {
		t.Fatal(err)
	}
	meta, _ := src.table.Lookup(key)
	src.table.MarkChunkLost(key, 0, meta.Chunks[0].Node, meta.Epoch)

	joinRing(t, src, dst)
	if n := src.Stats().MigratedKeys.Load(); n != 1 {
		t.Fatalf("MigratedKeys = %d, want 1", n)
	}
	moved, ok := dst.table.Lookup(key)
	if !ok {
		t.Fatal("the new owner holds no entry for the moved key")
	}
	if n := len(presentChunks(moved)); n != moved.TotalShards {
		t.Fatalf("the new owner holds %d of the moved key's %d chunks", n, moved.TotalShards)
	}
	if got, err := dc.GetCtx(ctx, key); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("GET at the new owner = %d bytes, %v; want the %d put", len(got), err, len(val))
	}
}

// TestHandoffTimeoutCancels: a handoff whose chunk SETs the destination
// never acks times out at the source, which CANCELs them there and
// keeps its own copy.
func TestHandoffTimeoutCancels(t *testing.T) {
	src, c := warmStack(t, &lambdanode.WarmPool{}, 4, Config{RequestTimeout: 300 * time.Millisecond}, hotClient)
	pool := &lambdanode.WarmPool{}
	dst, _ := warmStack(t, pool, 4, Config{}, hotClient)
	key := movedKey(src, dst)
	if err := c.PutCtx(context.Background(), key, []byte("held at the destination")); err != nil {
		t.Fatal(err)
	}
	pool.HoldSets.Store(true)

	joinRing(t, src, dst)
	if n := dst.Stats().Cancels.Load(); n == 0 {
		t.Fatal("the timed-out handoff CANCELled nothing at the destination")
	}
	if n := src.Stats().MigratedKeys.Load(); n != 0 {
		t.Fatalf("MigratedKeys = %d after a handoff that timed out", n)
	}
	if _, ok := src.table.Lookup(key); !ok {
		t.Fatal("the source dropped its copy of a key the destination never acked")
	}
}
