package client

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"infinicache/internal/protocol"
)

// stageValue sends every whole data shard of a PUT straight out of the
// caller's slice, so callers may share one backing array across
// concurrent PUTs (internal/replay's payload does) — which holds only
// while the client never writes through the value it is handed: not the
// bytes, and not the capacity beyond them, where an erasure coder
// padding the tail shard in place would land.

// ackingProxy ACKs every SET and keeps each key's data-shard payloads
// by chunk index.
func ackingProxy(t *testing.T) (*fakeProxy, func(key string) [][]byte) {
	var mu sync.Mutex
	got := make(map[string][][]byte)
	fp := newFakeProxy(t, func(c *protocol.Conn, m *protocol.Message) {
		if m.Type == protocol.TSet {
			mu.Lock()
			if got[m.Key] == nil {
				got[m.Key] = make([][]byte, m.Arg(1))
			}
			got[m.Key][m.Arg(0)] = append([]byte(nil), m.Payload...)
			mu.Unlock()
			c.Send(&protocol.Message{Type: protocol.TAck, Seq: m.Seq, Key: m.Key})
		}
		m.Recycle()
	})
	return fp, func(key string) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return got[key]
	}
}

func TestPutNeverWritesCallerValue(t *testing.T) {
	fp, sent := ackingProxy(t)
	c := testClient(t, fp.addr) // RS(4+2)

	// A length that leaves a short tail shard, with room behind it.
	const n, spare = 4*1000 + 3, 4096
	backing := make([]byte, n+spare)
	for i := range backing[:n] {
		backing[i] = byte(i * 131)
	}
	for i := range backing[n:] {
		backing[n+i] = 0xEE
	}
	want := append([]byte(nil), backing...)

	if err := c.PutCtx(context.Background(), "aliased", backing[:n:n+spare]); err != nil {
		t.Fatal(err)
	}
	for i := range backing {
		if backing[i] != want[i] {
			t.Fatalf("PutCtx wrote the caller's memory: byte %d (value is %d long) %#x -> %#x", i, n, want[i], backing[i])
		}
	}
	// And what went out is the value: the data shards, tail padding cut.
	shards := sent("aliased")
	if len(shards) != 6 {
		t.Fatalf("proxy saw %d chunks, want 6", len(shards))
	}
	if wire := bytes.Join(shards[:4], nil); len(wire) < n || !bytes.Equal(wire[:n], want[:n]) {
		t.Fatal("data shards on the wire do not spell the value")
	}
}

// TestConcurrentPutsShareBackingArray is the same contract as the race
// detector sees it: two goroutines PUT overlapping windows of one
// array, so any write through either value is a reported race.
func TestConcurrentPutsShareBackingArray(t *testing.T) {
	fp, _ := ackingProxy(t)
	c := testClient(t, fp.addr)
	backing := make([]byte, 64<<10)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 4*1000 + 3 + 17*i // short tail shards, lengths differing per PUT
				if err := c.PutCtx(context.Background(), fmt.Sprintf("shared-%d-%d", g, i), backing[:n:len(backing)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
