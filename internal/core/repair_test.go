package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// repair_test.go pins the one repair rule: a client running recovery
// re-inserts exactly the chunks the proxy reports lost — never a chunk
// that was only slow — and every lost chunk, data or parity, is put
// back on a node holding no other chunk of its object.

// TestHealthyReadsWriteNothing: on a fault-free deployment every GET
// leaves p chunks straggling behind its first d, and none of them is
// lost, so recovery has nothing to write.
func TestHealthyReadsWriteNothing(t *testing.T) {
	d, c := testDeployment(t, func(cfg *Config) { cfg.EnableRecovery = true })
	const keys = 100
	objs := make([][]byte, keys)
	for i := range objs {
		objs[i] = randObj(int64(400+i), 64<<10)
		if err := c.PutCtx(ctx, fmt.Sprintf("healthy-%d", i), objs[i]); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for round := 0; round < 4; round++ {
		for i := range objs {
			got, err := c.GetCtx(ctx, fmt.Sprintf("healthy-%d", i))
			if err != nil {
				t.Fatalf("round %d get %d: %v", round, i, err)
			}
			if !bytes.Equal(got, objs[i]) {
				t.Fatalf("round %d get %d: wrong bytes", round, i)
			}
		}
	}
	if n := c.Stats().Recoveries.Load(); n != 0 {
		t.Errorf("client re-inserted %d chunks across %d healthy GETs, want 0", n, 4*keys)
	}
	if n := d.Proxies[0].Stats().Repairs.Load(); n != 0 {
		t.Errorf("proxy committed %d repairs across %d healthy GETs, want 0", n, 4*keys)
	}
}

// TestSerialLossesRepaired: with every node holding one chunk of the
// object, reclaiming the nodes one at a time with reads in between
// loses one chunk per reclaim, which a read then repairs. Each loss,
// data chunk or parity, is put back on the one node that holds no other
// chunk, so the object never has more than one chunk gone and survives
// eight reclaims under RS(4+2).
func TestSerialLossesRepaired(t *testing.T) {
	d, c := testDeployment(t, func(cfg *Config) {
		cfg.NodesPerProxy = 6 // d+p = 6: every node holds exactly one chunk
		cfg.EnableRecovery = true
	})
	obj := randObj(11, 256<<10)
	if err := c.PutCtx(ctx, "serial", obj); err != nil {
		t.Fatal(err)
	}
	stats := d.Proxies[0].Stats()
	reclaims := []int{0, 1, 2, 3, 4, 5, 0, 1}
	for n, node := range reclaims {
		misses := stats.ChunkMisses.Load()
		d.Platform.ForceReclaimMatching(NodeName(0, node), -1)
		for r := 0; r < 5; r++ {
			got, err := c.GetCtx(ctx, "serial")
			if err != nil {
				t.Fatalf("reclaim %d (node %d), read %d: %v", n+1, node, r+1, err)
			}
			if !bytes.Equal(got, obj) {
				t.Fatalf("reclaim %d (node %d), read %d: wrong bytes", n+1, node, r+1)
			}
			// The first read's fetch from the reclaimed node meets a cold
			// start and answers MISS after the read returned. Give that
			// MISS time to land, so the reads after it carry the loss; a
			// proxy that drops a late MISS never learns it, and the reads
			// decide.
			if r == 0 {
				deadline := time.Now().Add(2 * time.Second)
				for stats.ChunkMisses.Load() == misses && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
	recovered, repairs := c.Stats().Recoveries.Load(), stats.Repairs.Load()
	if recovered != int64(len(reclaims)) || repairs != int64(len(reclaims)) {
		t.Errorf("client recovered %d chunks and the proxy committed %d repairs, want %d each (one per reclaim)",
			recovered, repairs, len(reclaims))
	}
}
