package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"infinicache/internal/bufpool"
	"infinicache/internal/client"
	"infinicache/internal/clockcache"
	"infinicache/internal/ec"
	"infinicache/internal/gf256"
	"infinicache/internal/hashring"
	"infinicache/internal/protocol"
	"infinicache/internal/replay"
	"infinicache/internal/workload"
)

// Layer probes: standalone timings of each module's public functions
// at the workloads' geometries (4 KiB and 8 MiB objects under RS(10+2),
// 1 MiB stripe shards). They are the same in every traced run.

const (
	smallObject = 4 << 10
	largeObject = 8 << 20
	probeReps   = 3
)

// measure returns the median over probeReps repetitions of f's time
// per call in nanoseconds; the repetitions together take about budget.
func measure(budget time.Duration, f func()) float64 {
	per := budget / (probeReps + 1)
	n := 1
	var elapsed time.Duration
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if elapsed = time.Since(t0); elapsed >= per/8 || n >= 1<<26 {
			break
		}
		n *= 2
	}
	if n = int(float64(n) * float64(per) / float64(elapsed)); n < 1 {
		n = 1
	}
	times := make([]float64, probeReps)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		times[r] = float64(time.Since(t0)) / float64(n)
	}
	return medianOf(times)
}

// mallocsPer is heap allocations per call of f.
func mallocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	f() // settle pools
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// runProbes runs every layer probe and the harness floor within about
// budget, setting their metrics on r.
func runProbes(r *result, budget time.Duration) error {
	slot := budget / 30 // 26 timed probes plus stack set-ups
	codec, err := ec.New(dataShards, parityShards)
	if err != nil {
		return err
	}
	probeKernels(r, slot)
	if err := probeCodec(r, codec, slot); err != nil {
		return err
	}
	probeSmallLayers(r, slot)
	if err := probeProtocol(r, slot); err != nil {
		return err
	}
	if err := probeNullProxy(r, codec, slot); err != nil {
		return err
	}
	if err := probeWarmStack(r, slot); err != nil {
		return err
	}
	return probeHarness(r, slot)
}

func probeKernels(r *result, slot time.Duration) {
	// One 8 MiB object's shards: 10 sources of 838861 bytes.
	shard := (largeObject + dataShards - 1) / dataShards
	srcs := make([][]byte, dataShards)
	coefs := make([]byte, dataShards)
	for i := range srcs {
		srcs[i] = randomBytes(shard, int64(i))
		coefs[i] = byte(2 + 3*i)
	}
	dst := make([]byte, shard)
	ns := measure(slot, func() { gf256.MulSources(coefs, srcs, dst, 0, shard) })
	r.set("gf256.mulsources_gbps", float64(dataShards*shard)/ns)
	ns = measure(slot, func() { gf256.XorSlice(srcs[0], dst) })
	r.set("gf256.xor_gbps", float64(shard)/ns)
	ns = measure(slot, func() { protocol.ChunkSum("c0/k00001", 3, srcs[0]) })
	r.set("protocol.chunksum_gbps", float64(shard)/ns)
}

func probeCodec(r *result, codec *ec.Codec, slot time.Duration) error {
	for _, g := range []struct {
		size    int
		missing int
		enc     string
		rec     string
	}{
		{largeObject, 2, "ec.encode_8MiB_us", "ec.reconstruct2_8MiB_us"},
		{smallObject, 1, "ec.encode_4KiB_us", "ec.reconstruct1_4KiB_us"},
	} {
		shards, err := codec.Split(randomBytes(g.size, 5))
		if err != nil {
			return err
		}
		var encErr error
		ns := measure(slot, func() {
			if err := codec.Encode(shards); err != nil {
				encErr = err
			}
		})
		if encErr != nil {
			return encErr
		}
		r.set(g.enc, ns/1e3)
		work := make([][]byte, len(shards))
		ns = measure(slot, func() {
			copy(work, shards)
			for i := 0; i < g.missing; i++ {
				work[i] = nil
			}
			if err := codec.ReconstructData(work); err != nil {
				encErr = err
			}
		})
		if encErr != nil {
			return encErr
		}
		r.set(g.rec, ns/1e3)
	}
	return nil
}

func probeSmallLayers(r *result, slot time.Duration) {
	getput := func() { bufpool.Put(bufpool.Get(1 << 20)) }
	r.set("bufpool.getput_1MiB_ns", measure(slot, getput))
	r.set("bufpool.getput_allocs", mallocsPer(1000, getput))

	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("c0/k%05d", i)
	}
	ring := hashring.New(100)
	for i := 0; i < 4; i++ {
		ring.Add(fmt.Sprintf("10.0.0.%d:6378", i))
	}
	i := 0
	r.set("hashring.locate_ns", measure(slot, func() { ring.Locate(keys[i%len(keys)]); i++ }))

	cc := clockcache.New()
	for _, k := range keys {
		cc.Add(k, smallObject)
	}
	r.set("clockcache.touch_ns", measure(slot, func() { cc.Touch(keys[i%len(keys)]); i++ }))
	r.set("clockcache.add_evict_ns", measure(slot, func() {
		if e := cc.Evict(); e != nil {
			cc.Add(e.Key, smallObject)
		}
	}))

	off := int64(0)
	r.set("protocol.planrange_ns", measure(slot, func() {
		protocol.PlanRange(60<<20, 10<<20, dataShards, 1+off%(58<<20), 1<<20)
		off += 7919
	}))
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b := <-ch
	if b.err != nil {
		a.Close()
		return nil, nil, b.err
	}
	return a, b.c, nil
}

func probeProtocol(r *result, slot time.Duration) error {
	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	near, far := protocol.NewConn(a), protocol.NewConn(b)
	echoDone := make(chan struct{})
	go func() { // echo: every frame comes back with its payload
		defer close(echoDone)
		for {
			m, err := far.Recv()
			if err != nil {
				return
			}
			far.Forward(protocol.TData, m.Seq, m.Key, "", nil, m.Payload)
			m.Free()
		}
	}()
	var rtErr error
	roundTrip := func(payload []byte) func() {
		seq := uint64(0)
		return func() {
			seq++
			if err := near.Forward(protocol.TSet, seq, "c0/k00001#3", "", nil, payload); err != nil {
				rtErr = err
				return
			}
			m, err := near.Recv()
			if err != nil {
				rtErr = err
				return
			}
			m.Free()
		}
	}
	small := roundTrip(randomBytes(1<<10, 1))
	r.set("protocol.roundtrip_1KiB_ns", measure(slot, small))
	r.set("protocol.recv_allocs", mallocsPer(2000, small)/2) // two frames are received per round trip
	r.set("protocol.roundtrip_1MiB_us", measure(slot, roundTrip(randomBytes(1<<20, 2)))/1e3)
	near.Close()
	far.Close()
	<-echoDone
	if rtErr != nil {
		return fmt.Errorf("protocol round trip: %w", rtErr)
	}

	// A hot-tier hit of a 4 KiB object: ten 410-byte DATA frames replayed
	// from one prebuilt image into a connection whose peer discards.
	if a, b, err = tcpPair(); err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() { io.Copy(io.Discard, b); close(drained) }()
	var image protocol.Prebuilt
	chunk := randomBytes(400, 3)
	for i := 0; i < dataShards; i++ {
		if err := image.Append(protocol.TData, "c0/k00001", "", []int64{int64(i), smallObject, dataShards, dataShards + parityShards}, chunk); err != nil {
			return err
		}
	}
	out := protocol.NewConn(a)
	seq := uint64(0)
	r.set("protocol.sendprebuilt_10x400B_ns", measure(slot, func() {
		seq++
		if err := out.SendPrebuilt(&image, seq); err != nil {
			rtErr = err
		}
	}))
	out.Close()
	<-drained
	b.Close()
	return rtErr
}

// nullProxy acks every SET and answers every GET with the d canned
// DATA frames of one 4 KiB object: timing client calls against it
// leaves the client library's own cost.
type nullProxy struct {
	ln    net.Listener
	done  chan struct{}
	key   string
	size  int
	data  [][]byte // the object's d data shards
	total int
}

func newNullProxy(codec *ec.Codec, key string, value []byte) (*nullProxy, error) {
	shards, err := codec.Split(value)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	np := &nullProxy{ln: ln, done: make(chan struct{}), key: key, size: len(value),
		data: shards[:codec.DataShards()], total: codec.TotalShards()}
	go np.acceptLoop()
	return np, nil
}

func (np *nullProxy) acceptLoop() {
	defer close(np.done)
	var conns []*protocol.Conn
	var serving sync.WaitGroup
	for {
		raw, err := np.ln.Accept()
		if err != nil {
			break
		}
		conn := protocol.NewConn(raw)
		conns = append(conns, conn)
		serving.Add(1)
		go func() {
			defer serving.Done()
			np.serve(conn)
		}()
	}
	for _, c := range conns {
		c.Close()
	}
	serving.Wait()
}

func (np *nullProxy) serve(conn *protocol.Conn) {
	handle := func(m *protocol.Message) {
		switch m.Type {
		case protocol.TSet:
			conn.Forward(protocol.TAck, m.Seq, m.Key, "", nil, nil)
		case protocol.TGet:
			for i, shard := range np.data {
				args := [5]int64{int64(i), int64(np.size), int64(len(np.data)), int64(np.total),
					protocol.ChunkSum(np.key, i, shard)}
				conn.Forward(protocol.TData, m.Seq, np.key, "", args[:], shard)
			}
		}
		m.Free()
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		conn.Pin()
		handle(m)
		for conn.Buffered() > 0 {
			if m, err = conn.Recv(); err != nil {
				conn.Flush()
				return
			}
			handle(m)
		}
		if conn.Flush() != nil {
			return
		}
	}
}

func (np *nullProxy) Close() {
	np.ln.Close()
	<-np.done
}

func probeNullProxy(r *result, codec *ec.Codec, slot time.Duration) error {
	const key = "c0/k00001"
	value := randomBytes(smallObject, 9)
	np, err := newNullProxy(codec, key, value)
	if err != nil {
		return err
	}
	defer np.Close()
	c, err := client.New(client.Config{
		Proxies:    []client.ProxyInfo{{Addr: np.ln.Addr().String(), PoolSize: warmNodes}},
		DataShards: dataShards, ParityShards: parityShards, Seed: 7,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	var opErr error
	r.set("client.null_get_4KiB_us", measure(slot, func() {
		obj, err := c.GetObject(ctx, key)
		if err != nil {
			opErr = err
			return
		}
		obj.Release()
	})/1e3)
	got, err := c.GetCtx(ctx, key)
	if err == nil && string(got) != string(value) {
		err = fmt.Errorf("null proxy GET returned wrong bytes")
	}
	if err != nil {
		return err
	}
	r.set("client.null_put_4KiB_us", measure(slot, func() {
		if err := c.PutCtx(ctx, key, value); err != nil {
			opErr = err
		}
	})/1e3)
	large := wholeValue(0, largeObject)
	r.set("client.null_put_8MiB_us", measure(slot, func() {
		if err := c.PutCtx(ctx, key, large); err != nil {
			opErr = err
		}
	})/1e3)
	return opErr
}

// rawGet times one TGet frame over a bare protocol.Conn until its d-th
// DATA frame: the proxy's share of a GET with no client library and no
// erasure coding.
func rawGet(addr, key string, slot time.Duration) (float64, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	conn := protocol.NewConn(raw)
	defer conn.Close()
	if err := conn.Send(&protocol.Message{Type: protocol.TJoinClient}); err != nil {
		return 0, err
	}
	var opErr error
	seq := uint64(0)
	ns := measure(slot, func() {
		seq++
		if err := conn.Forward(protocol.TGet, seq, key, "", nil, nil); err != nil {
			opErr = err
			return
		}
		for got := 0; got < dataShards; {
			m, err := conn.Recv()
			if err != nil {
				opErr = err
				return
			}
			// Stragglers of the previous GET carry its seq.
			if m.Seq == seq {
				if m.Type != protocol.TData {
					opErr = fmt.Errorf("raw GET %s: got %v", key, m.Type)
					got = dataShards
				}
				got++
			}
			m.Free()
		}
	})
	return ns / 1e3, opErr
}

// probeWarmStack times the calls that need a live proxy: batched
// MGet/MPut, PutReader, and the raw proxy GET on the node path and on
// the hot-tier path.
func probeWarmStack(r *result, slot time.Duration) error {
	ctx := context.Background()
	s, err := newWarmStack(0)
	if err != nil {
		return err
	}
	defer s.Close()
	c := s.clients[0]
	keys := make([]string, 16)
	pairs := make([]client.KV, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("c0/k%05d", i)
		pairs[i] = client.KV{Key: keys[i], Value: wholeValue(contentBase(i, 1), smallObject)}
	}
	var opErr error
	r.set("client.mput16_4KiB_us", measure(slot, func() {
		for _, pr := range c.MPut(ctx, pairs...) {
			if pr.Err != nil {
				opErr = pr.Err
			}
		}
	})/1e3)
	var v verifier
	r.set("client.mget16_4KiB_us", measure(slot, func() {
		for i, gr := range c.MGet(ctx, keys...) {
			if gr.Err != nil {
				opErr = gr.Err
				continue
			}
			v.reset(contentBase(i, 1), 0, smallObject, true)
			gr.Object.WriteTo(&v)
			gr.Object.Release()
			if err := v.err(); err != nil {
				opErr = fmt.Errorf("mget %s: %w", keys[i], err)
			}
		}
	})/1e3)
	if opErr != nil {
		return opErr
	}

	const streamSize = 20 << 20 // two full stripes at the default 1 MiB stripe shard
	ns := measure(2*slot, func() {
		if err := c.PutReader(ctx, "c0/stream", streamSize, &patternReader{size: streamSize}); err != nil {
			opErr = err
		}
	})
	r.set("client.putreader_mib_per_s", float64(streamSize>>20)/(ns/1e9))
	if opErr != nil {
		return opErr
	}

	us, err := rawGet(s.px.Addr(), keys[0], slot)
	if err != nil {
		return err
	}
	r.set("proxy.raw_get_4KiB_us", us)

	hot, err := newWarmStack(4 << 20)
	if err != nil {
		return err
	}
	defer hot.Close()
	// Two PUTs pass the tier's frequency gate; the GET proves residency.
	for i := 0; i < 2; i++ {
		if err := hot.clients[0].PutCtx(ctx, keys[0], pairs[0].Value); err != nil {
			return err
		}
	}
	if _, err := hot.clients[0].GetCtx(ctx, keys[0]); err != nil {
		return err
	}
	hits := hot.px.Stats().HotHits.Load()
	if us, err = rawGet(hot.px.Addr(), keys[0], slot); err != nil {
		return err
	}
	if hot.px.Stats().HotHits.Load() == hits {
		return fmt.Errorf("raw hot GET probe was not served from the hot tier")
	}
	r.set("proxy.raw_hotget_4KiB_us", us)
	return nil
}

// probeHarness measures the generator itself: the closed-loop driver
// against an in-memory map, and replay.Run against replay.NewDummy().
func probeHarness(r *result, slot time.Duration) error {
	ctx := context.Background()
	m := &mix{KeysPerClient: 2048, ObjSize: smallObject, PutPct: 10}
	var ts [numClients]target
	var gens [numClients]*clientGen
	for i := range gens {
		ts[i] = &mapTarget{m: map[string][]byte{}}
		gens[i] = newClientGen(i, defaultSeed, m)
		if err := gens[i].preload(ctx, ts[i], m); err != nil {
			return err
		}
	}
	// At least 50 ms a window: a goroutine can wait 10 ms for a core.
	window := max(slot, 50*time.Millisecond)
	p := runPass(ctx, ts, gens, m, window/2, window, 2, nil, nil)
	if _, failed, _, err := p.totals(); failed > 0 {
		return fmt.Errorf("harness floor: %d failed ops: %v", failed, err)
	}
	var seconds, ops float64
	for _, w := range p.windows() {
		seconds += w.seconds
		ops += float64(w.ok)
	}
	r.set("harness.op_overhead_ns", ratio(seconds*1e9*numClients, ops))

	tr := workload.Generate(traceCfg)
	d := replay.NewDummy()
	defer d.Close()
	t0 := time.Now()
	res, err := replay.Run(ctx, replay.Config{Speedup: -1, Sessions: numClients}, tr, d)
	if err != nil {
		return err
	}
	r.set("harness.replay_overhead_us", float64(time.Since(t0))/1e3/float64(res.Records))
	return nil
}
