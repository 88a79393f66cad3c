package proxy

import (
	"bytes"
	"context"
	"testing"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/lambdanode"
	"infinicache/internal/protocol"
)

// The tests in this file pin the streaming object plane's proxy-side
// contract against an always-warm lambdanode.WarmPool: a sub-stripe
// ranged GET must cost exactly the intersecting data chunks (no parity,
// no full-d fan-out), and a corrupt intersecting chunk must escalate
// through the checksum strike ladder into a degraded fan-out the client
// can reconstruct byte-exactly.

// streamClient is the streaming tests' client: RS(10+2) with the stripe
// shard pinned, so tests control the range→chunk geometry exactly.
func streamClient(stripeShard int64) client.Config {
	return client.Config{DataShards: 10, ParityShards: 2, RequestTimeout: 20 * time.Second, Seed: 23, StripeShard: stripeShard}
}

// rangePattern fills a deterministic test payload distinct from the
// replay harness pattern.
func rangePattern(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>11)
	}
	return b
}

// TestGetRangeFetchCountPin is the CI-pinned fan-out invariant, for
// both read shapes. A 1 MiB GetRange of a 64 MiB RS(10+2) streamed
// object must cost exactly the data chunks the range intersects — two
// 1 MiB shards for a mid-shard start — with no parity fetch and no
// full-d fan-out. A whole-object GET is the §3.2 first-d read: the
// proxy asks all d+p chunk holders at once, so it has submitted all 12
// chunk GETs by the time the client holds the object, and the two
// stragglers are still served. The subtest keeps the name it had when
// a hedged read mode ran the same pin beside it.
func TestGetRangeFetchCountPin(t *testing.T) {
	t.Run("hedged=false", getRangeFetchCountPin)
}

func getRangeFetchCountPin(t *testing.T) {
	const (
		stripeShard = 1 << 20
		d           = 10
		stripeData  = int64(stripeShard * d)
		objSize     = int64(64 << 20)
	)
	pool := &lambdanode.WarmPool{}
	p, c := warmStack(t, pool, 12, Config{NodeMemoryMB: 512, Retries: 3}, streamClient(stripeShard))
	ctx := context.Background()
	val := rangePattern(objSize)

	if err := c.PutReader(ctx, "pin", objSize, bytes.NewReader(val)); err != nil {
		t.Fatal(err)
	}

	// Mid-shard start inside stripe 2: the 1 MiB range straddles exactly
	// two shard boundaries' worth of data chunks.
	off := 2*stripeData + 3*int64(stripeShard) + 511
	n := int64(1 << 20)
	plan := protocol.PlanRange(objSize, stripeData, d, off, n)
	planned := 0
	for _, sp := range plan {
		planned += len(sp.Shards)
	}
	if planned != 2 {
		t.Fatalf("plan covers %d chunks, want 2 (test geometry drifted)", planned)
	}

	proxyBefore := p.Stats().NodeChunkGets.Load()
	nodeBefore := pool.Gets.Load()
	got, err := c.GetRange(ctx, "pin", off, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val[off:off+n]) {
		t.Fatalf("GetRange returned wrong bytes (len %d, want %d)", len(got), n)
	}
	if moved := p.Stats().NodeChunkGets.Load() - proxyBefore; moved != int64(planned) {
		t.Fatalf("proxy submitted %d chunk GETs, want exactly %d (the intersecting data chunks)", moved, planned)
	}
	if moved := pool.Gets.Load() - nodeBefore; moved != int64(planned) {
		t.Fatalf("nodes served %d chunk GETs, want exactly %d — parity or full-d fan-out leaked in", moved, planned)
	}
	if p.Stats().RangedGets.Load() == 0 {
		t.Fatal("RangedGets did not register the ranged request")
	}

	// The whole object still reads back byte-exactly through the ranged
	// plane (whole-object GETs of streamed objects redirect here).
	full, err := c.GetRange(ctx, "pin", 0, objSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, val) {
		t.Fatal("full-range read is not byte-exact")
	}

	// Whole-object read shape: first-d over every present chunk.
	whole := rangePattern(1<<20 + 3)
	if err := c.PutCtx(ctx, "whole", whole); err != nil {
		t.Fatal(err)
	}
	proxyBefore = p.Stats().NodeChunkGets.Load()
	nodeBefore = pool.Gets.Load()
	obj, err := c.GetObject(ctx, "whole")
	if err != nil {
		t.Fatal(err)
	}
	moved := p.Stats().NodeChunkGets.Load() - proxyBefore
	got = obj.Bytes()
	obj.Release()
	if !bytes.Equal(got, whole) {
		t.Fatalf("GetObject returned wrong bytes (len %d, want %d)", len(got), len(whole))
	}
	if moved != 12 {
		t.Fatalf("proxy submitted %d chunk GETs for a whole-object GET, want all d+p = 12", moved)
	}
	waitUntil(t, "the nodes to serve all 12 chunk GETs", func() bool { return pool.Gets.Load()-nodeBefore >= 12 })
	if served := pool.Gets.Load() - nodeBefore; served != 12 {
		t.Fatalf("nodes served %d chunk GETs, want exactly 12", served)
	}
}

// TestGetRangeCorruptChunkEscalates pins the PR 9 integrity ladder on
// the ranged path: a corrupt intersecting chunk draws a checksum strike
// per attempt, escalates to CorruptLost on the second, and the third
// attempt serves the stripe degraded — the client reconstructs and the
// caller still sees byte-exact data.
func TestGetRangeCorruptChunkEscalates(t *testing.T) {
	const (
		stripeShard = int64(64 << 10)
		d           = 10
		stripeData  = stripeShard * d
		objSize     = 2 << 20
	)
	pool := &lambdanode.WarmPool{}
	p, c := warmStack(t, pool, 12, Config{NodeMemoryMB: 512, Retries: 3}, streamClient(stripeShard))
	ctx := context.Background()
	val := rangePattern(objSize)

	if err := c.PutReader(ctx, "rot", objSize, bytes.NewReader(val)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first chunk the planned range will fetch.
	off, n := stripeData+10_000, int64(100_000)
	plan := protocol.PlanRange(objSize, stripeData, d, off, n)
	if len(plan) == 0 || len(plan[0].Shards) == 0 {
		t.Fatal("empty range plan; test geometry drifted")
	}
	sp := plan[0]
	chunkKey := ChunkKey(protocol.StripeKey("rot", sp.Stripe), sp.Shards[0])
	if !pool.Corrupt(chunkKey) {
		t.Fatalf("chunk %q not resident in the pool", chunkKey)
	}

	got, err := c.GetRange(ctx, "rot", off, n)
	if err != nil {
		t.Fatalf("GetRange over a corrupt chunk: %v", err)
	}
	if !bytes.Equal(got, val[off:off+n]) {
		t.Fatal("reconstructed range is not byte-exact")
	}
	st := p.Stats()
	if cs := st.ChecksumFailures.Load(); cs < 2 {
		t.Fatalf("ChecksumFailures = %d, want >= 2 (one per strike)", cs)
	}
	if cl := st.CorruptLost.Load(); cl != 1 {
		t.Fatalf("CorruptLost = %d, want 1 (second strike escalates)", cl)
	}
	if dg := st.DegradedGets.Load(); dg == 0 {
		t.Fatal("corrupt chunk never forced a degraded stripe fan-out")
	}

	// The degraded read must not have poisoned the object: a clean
	// follow-up range over an untouched stripe is still exact and cheap.
	off2, n2 := int64(5_000), int64(20_000)
	got2, err := c.GetRange(ctx, "rot", off2, n2)
	if err != nil || !bytes.Equal(got2, val[off2:off2+n2]) {
		t.Fatalf("follow-up range after escalation: %v", err)
	}
}
