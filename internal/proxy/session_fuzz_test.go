package proxy

import (
	"bytes"
	"context"
	"testing"
	"time"

	"infinicache/internal/lambdanode"
	"infinicache/internal/netsim"
	"infinicache/internal/protocol"
)

// FuzzHandleSet sends raw SET frames — arbitrary key, args block and
// payload, one to four frames of a generation — into a real session on
// a proxy over a WarmPool, then hangs up. Whatever the frames said, the
// proxy must not panic; once the session has run to its exit it holds
// no open write generation, the pool accounting equals the chunk bytes
// the table committed, and an ordinary PUT and GET still round-trip.
func FuzzHandleSet(f *testing.F) {
	p, c := warmStack(f, &lambdanode.WarmPool{}, 4, Config{HotTierBytes: 1 << 20}, hotClient)
	nw := netsim.NewNetwork()
	ln, err := nw.Listen("fuzz-writer")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	const withSum = 1 << 2 // flags bit: carry the frame's true checksum
	shard := bytes.Repeat([]byte("s"), 512)
	// key, nargs, idx, total, node, objSize, d, gen, flags (recovery,
	// migration, sum), checksum, streamSize, stripeData, payload, frames.
	f.Add("fz/k", uint8(9), int64(0), int64(3), int64(0), int64(1024), int64(2), int64(1), uint8(withSum), int64(0), int64(0), int64(0), shard, uint8(2))
	f.Add("fz/k", uint8(9), int64(1), int64(3), int64(2), int64(1024), int64(2), int64(7), uint8(withSum|1), int64(0), int64(0), int64(0), shard, uint8(0))
	f.Add("fz/k", uint8(9), int64(0), int64(3), int64(1), int64(1024), int64(2), int64(3), uint8(withSum|2), int64(0), int64(0), int64(0), shard, uint8(1))
	f.Add("fz/k", uint8(11), int64(0), int64(3), int64(3), int64(2048), int64(2), int64(4), uint8(withSum), int64(0), int64(4096), int64(1024), shard, uint8(2))
	f.Add("fz/k", uint8(6), int64(0), int64(1<<62), int64(1), int64(-5), int64(2), int64(0), uint8(0), int64(0), int64(0), int64(0), []byte{}, uint8(3))

	f.Fuzz(func(t *testing.T, key string, nargs uint8, idx, total, node, objSize, d, gen int64,
		flags uint8, checksum, streamSize, stripeData int64, payload []byte, frames uint8) {
		if len(key) > protocol.MaxKeyLen {
			return
		}
		raw, err := nw.Dial("fuzz-writer")
		if err != nil {
			t.Fatal(err)
		}
		near, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		s := newSession(p, protocol.NewConn(near))
		exited := make(chan struct{})
		go func() {
			s.run()
			close(exited)
		}()
		writer := protocol.NewConn(raw)
		go func() { // the replies' content is not the property; drain them
			for m := range protocol.Pump(writer) {
				m.Free()
			}
		}()

		for i := int64(0); i <= int64(frames%4); i++ {
			args := []int64{idx + i, total, node, objSize, d, gen, int64(flags & 1), int64(flags >> 1 & 1), checksum, streamSize, stripeData}
			if flags&withSum != 0 {
				args[setArgChecksum] = protocol.ChunkSum(key, int(idx+i), payload)
			}
			if writer.Forward(protocol.TSet, uint64(i+1), key, "", args[:int(nargs)%(len(args)+1)], payload) != nil {
				break
			}
		}
		writer.Close()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			t.Fatal("the session did not exit after its writer hung up")
		}

		if n := len(s.writes); n != 0 {
			t.Fatalf("%d write generations still open after the session exited", n)
		}
		if used, sum := p.table.UsedBytes(), committedBytes(p); used != sum {
			t.Fatalf("UsedBytes = %d, committed chunks sum to %d", used, sum)
		}
		ctx := context.Background()
		if err := c.PutCtx(ctx, "fz/probe", shard); err != nil {
			t.Fatalf("PUT after the fuzzed session: %v", err)
		}
		if got, err := c.GetCtx(ctx, "fz/probe"); err != nil || !bytes.Equal(got, shard) {
			t.Fatalf("GET after the fuzzed session: %v", err)
		}
	})
}
