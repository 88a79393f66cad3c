package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"infinicache/internal/bufpool"
	"infinicache/internal/protocol"
)

// Streaming object plane, client side.
//
// PutReader encodes and ships an object of known size as a sequence of
// stripes — each an independent RS(d+p) sub-object of at most
// StripeShard×d data bytes — so only a small window of stripes is ever
// resident, not the whole object. Stripe 0 (the head, under the
// object's own key) carries the stream geometry and commits fully
// before any sibling is sent: the head's arrival atomically retires the
// previous version of the key (the proxy drops the old family), and
// doing that while a new sibling SET is in flight would drop the
// sibling too.
//
// GetRange fetches only the data chunks the requested byte range
// intersects (protocol.PlanRange, executed proxy-side): a 1 MiB read of
// a 1 GiB object costs ⌈range/shard⌉ chunk fetches, not d. A
// whole-object GET of a streamed object is answered with a redirect
// (protocol.StreamObjectFlag) that GetObject follows transparently.

// errStreamObject reports a whole-object GET that hit a multi-stripe
// streamed object: the proxy answers with the object's total size and
// the client re-reads it through the ranged plane.
type errStreamObject struct{ size int64 }

func (e errStreamObject) Error() string {
	return fmt.Sprintf("client: streamed object (%d bytes); read it ranged", e.size)
}

// putWindow is how many stripes beyond the head a streaming PUT keeps
// in flight at once. Peak client memory is about (putWindow+1) stripe
// buffers plus their in-flight shard sets — a few stripe windows,
// independent of object size.
const putWindow = 2

// stripeData is the data bytes per full stripe under this client's
// geometry.
func (c *Client) stripeData() int64 {
	return c.cfg.StripeShard * int64(c.codec.DataShards())
}

// PutReader streams an object of exactly size bytes from r into the
// cache without materialising it: bytes are read stripe by stripe, each
// stripe erasure-coded and shipped while at most putWindow successors
// are in flight. An object no larger than one stripe is stored exactly
// as PutCtx stores it (and reads back through GetObject unchanged);
// larger objects must be read back with GetRange or GetObject (which
// follows the streamed-object redirect). A failed stream deletes
// whatever partial stripe family landed, so the key never reads
// half-written.
func (c *Client) PutReader(ctx context.Context, key string, size int64, r io.Reader) error {
	if size <= 0 {
		return errors.New("client: empty value")
	}
	c.stats.Puts.Add(1)
	stripeData := c.stripeData()
	if size <= stripeData {
		buf := bufpool.Get(int(size))
		defer bufpool.Put(buf)
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("client: stream read: %w", err)
		}
		return c.put(ctx, key, key, buf, nil)
	}

	// The head ships first and alone, carrying the stream geometry.
	head := bufpool.Get(int(stripeData))
	_, err := io.ReadFull(r, head)
	if err == nil {
		err = c.put(ctx, key, key, head, []int64{size, stripeData})
	} else {
		err = fmt.Errorf("client: stream read: %w", err)
	}
	bufpool.Put(head)
	if err != nil {
		return err
	}

	// Stripes 1..n-1 ride a bounded window: reads stay sequential on r
	// while up to putWindow stripes encode, ship and await acks
	// concurrently (per-stripe generations are independent).
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, putWindow)
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for s, n := 1, protocol.StripeCount(size, stripeData); s < n && !failed(); s++ {
		slen := min(stripeData, size-int64(s)*stripeData)
		buf := bufpool.Get(int(slen))
		if _, err := io.ReadFull(r, buf); err != nil {
			bufpool.Put(buf)
			fail(fmt.Errorf("client: stream read: %w", err))
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(s int, buf []byte) {
			defer func() {
				bufpool.Put(buf)
				<-sem
				wg.Done()
			}()
			if err := c.put(ctx, key, protocol.StripeKey(key, s), buf, nil); err != nil {
				fail(fmt.Errorf("client: stripe %d: %w", s, err))
			}
		}(s, buf)
	}
	wg.Wait()
	if firstErr != nil {
		// Best effort, on a fresh context (the stream's may be the reason
		// it failed): the head must not linger over missing stripes, and
		// deleting it drops whatever siblings already landed.
		c.DelCtx(context.WithoutCancel(ctx), key)
		return firstErr
	}
	return nil
}

// GetRange fetches bytes [off, off+n) of an object into a freshly
// allocated buffer. The range is clamped to the object ([off, size)):
// a read past EOF returns the bytes that exist, empty included, never
// an error. Only the data chunks the clamped range intersects are
// fetched; a degraded stripe (lost or corrupt chunk en route) falls
// back to gathering d chunks of that stripe and reconstructing. Works
// on streamed and legacy objects alike.
func (c *Client) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	c.stats.Gets.Add(1)
	if n <= 0 {
		return []byte{}, nil
	}
	var data []byte
	err := c.do(ctx, key, func(rt route) (err error) {
		data, err = c.tryRange(ctx, rt, key, off, n)
		return err
	})
	return data, err
}

// rangeObject serves a whole-object read of a streamed object through
// the ranged plane and wraps the bytes as a single-shard Object so the
// GetObject contract (WriteTo/Read/Bytes + Release) holds.
func (c *Client) rangeObject(ctx context.Context, rt route, key string, size int64) (*Object, error) {
	data, err := c.tryRange(ctx, rt, key, 0, size)
	if err != nil {
		return nil, err
	}
	return &Object{shards: [][]byte{data}, d: 1, size: len(data), valid: true}, nil
}

// rangeFrames sizes a ranged GET's response channel for a request of n
// bytes. It must cover every frame the proxy can send on the seq (the
// dispatcher drops on overflow): up to d chunks of every stripe the
// range touches plus the terminal, reckoned in this client's stripe
// geometry and never below rangeFrameBuf — at the default 1 MiB stripe
// shard that floor alone is ~1 GiB of requested range. Only an object
// written under a much smaller stripe shard than this client's can
// overflow it; a dropped frame then surfaces as an incomplete assembly
// at the terminal, which retries as a transient.
func (c *Client) rangeFrames(n int64) int {
	stripes := min(n/c.stripeData()+2, rangeFrameMax)
	return int(min(max(stripes*int64(c.codec.DataShards())+1, rangeFrameBuf), rangeFrameMax))
}

const (
	rangeFrameBuf = 1024
	// rangeFrameMax caps the channel a single request can make the client
	// allocate (n is caller-supplied and may be "to EOF").
	rangeFrameMax = 1 << 16
)

// tryRange runs one ranged GET attempt against rt and assembles the
// reply frames into the requested bytes.
func (c *Client) tryRange(ctx context.Context, rt route, key string, off, n int64) ([]byte, error) {
	var args [4]int64
	if rt.authoritative {
		args[0] = 1
	}
	args[protocol.RangeArgFlag] = 1
	args[protocol.RangeArgOff] = off
	args[protocol.RangeArgLen] = n
	asm := rangeAssembler{c: c, key: key, off: off, n: n}
	defer asm.release()
	err := c.ask(ctx, rt.Addr, protocol.TGet, key, args[:], c.rangeFrames(n), asm.apply)
	if err != nil {
		return nil, err
	}
	return asm.out, nil
}

// stripeGather accumulates a degraded stripe's d-chunk fan-in until it
// can be reconstructed.
type stripeGather struct {
	start, slen int64
	shards      [][]byte // len total; pooled payloads, owned here
	got         int
}

// rangeAssembler folds the reply frames of one ranged GET into the
// requested bytes. Healthy chunks are copied straight into the output
// (the payload returns to the pool immediately); degraded stripes
// gather d chunks, reconstruct, then copy. The terminal frame (idx -1,
// always last in FIFO order) closes the assembly; by then every byte of
// the clamped range must be covered exactly once — anything else
// (dropped frame, half-gathered stripe) fails transient so the retry
// path re-plans.
type rangeAssembler struct {
	c        *Client
	key      string
	off, n   int64 // requested range, unclamped
	out      []byte
	coff     int64 // clamped offset (valid once sized)
	covered  int64
	sized    bool
	degraded map[int]*stripeGather
}

// size clamps the request against the authoritative object size (every
// reply frame carries it) and allocates the output on first use.
func (a *rangeAssembler) size(size int64) {
	if a.sized {
		return
	}
	coff, cn := protocol.ClampRange(size, a.off, a.n)
	a.coff = coff
	a.out = make([]byte, cn)
	a.sized = true
}

// copySpan copies the overlap of shard bytes covering object range
// [cs, ce) into the output and accounts the coverage.
func (a *rangeAssembler) copySpan(payload []byte, cs, ce int64) {
	lo := max(cs, a.coff)
	hi := min(ce, a.coff+int64(len(a.out)))
	if lo >= hi {
		return
	}
	copy(a.out[lo-a.coff:hi-a.coff], payload[lo-cs:hi-cs])
	a.covered += hi - lo
}

// apply folds one frame in. done reports the attempt finished, with
// a.out assembled or the error to feed the driver.
func (a *rangeAssembler) apply(msg *protocol.Message) (done bool, err error) {
	if err := a.c.classify(msg, a.key, protocol.TData); err != nil {
		return true, err
	}
	a.size(msg.Arg(protocol.RangeDataArgSize))
	idx := int(msg.Arg(protocol.RangeDataArgIdx))
	if idx >= 0 {
		return a.applyChunk(msg, idx)
	}
	// Terminal frame: the proxy sent everything it fetched.
	if a.covered != int64(len(a.out)) || len(a.degraded) > 0 {
		return true, fmt.Errorf("%w: range assembly incomplete (%d/%d bytes)",
			errTransient, a.covered, len(a.out))
	}
	a.c.stats.Hits.Add(1)
	return true, nil
}

// applyChunk folds one data-chunk frame in.
func (a *rangeAssembler) applyChunk(msg *protocol.Message, idx int) (done bool, err error) {
	d, total := int(msg.Arg(protocol.RangeDataArgShards)), int(msg.Arg(protocol.RangeDataArgTotal))
	if cd, ct := a.c.codec.DataShards(), a.c.codec.TotalShards(); d != cd || total != ct {
		return true, fmt.Errorf("%w: object is RS(%d+%d) but this client speaks RS(%d+%d)",
			ErrRejected, d, total-d, cd, ct-cd)
	}
	stripe := int(msg.Arg(protocol.RangeDataArgStripe))
	start := msg.Arg(protocol.RangeDataArgStripeStart)
	slen := msg.Arg(protocol.RangeDataArgStripeLen)
	flags := msg.Arg(protocol.RangeDataArgFlags)
	// End-to-end integrity: length per the stripe geometry, checksum
	// bound to the stripe entry's key — exactly what was computed at
	// encode time.
	if want := protocol.ShardSizeFor(slen, d); int64(len(msg.Payload)) != want || idx >= total {
		a.c.stats.ChecksumFailures.Add(1)
		return true, fmt.Errorf("%w: stripe %d chunk %d: bad shard length", errTransient, stripe, idx)
	}
	if flags&protocol.RangeFlagHasSum != 0 &&
		protocol.ChunkSum(protocol.StripeKey(a.key, stripe), idx, msg.Payload) != msg.Arg(protocol.RangeDataArgSum) {
		a.c.stats.ChecksumFailures.Add(1)
		return true, fmt.Errorf("%w: stripe %d chunk %d: checksum mismatch", errTransient, stripe, idx)
	}

	if flags&protocol.RangeFlagDegraded == 0 {
		// Healthy chunk: copy its overlap with the request; the payload
		// recycles with the frame.
		cs, ce := protocol.ShardSpan(start, slen, d, idx)
		a.copySpan(msg.Payload, cs, ce)
		return false, nil
	}

	// Degraded stripe: the proxy fanned out d present chunks (data or
	// parity); gather them, reconstruct the data shards, then copy the
	// stripe's whole overlap with the request.
	if a.degraded == nil {
		a.degraded = make(map[int]*stripeGather)
	}
	g := a.degraded[stripe]
	if g == nil {
		g = &stripeGather{start: start, slen: slen, shards: make([][]byte, total)}
		a.degraded[stripe] = g
	}
	if g.shards[idx] != nil {
		return false, nil // duplicate
	}
	g.shards[idx] = msg.Payload // ownership moves to the gather
	msg.Payload = nil
	g.got++
	if g.got < d {
		return false, nil
	}
	a.c.stats.Decodes.Add(1)
	if derr := a.c.codec.ReconstructData(g.shards); derr != nil {
		return true, fmt.Errorf("client: decode stripe %d: %w", stripe, derr)
	}
	for i := 0; i < d; i++ {
		cs, ce := protocol.ShardSpan(g.start, g.slen, d, i)
		a.copySpan(g.shards[i], cs, ce)
	}
	bufpool.PutAll(g.shards)
	delete(a.degraded, stripe)
	return false, nil
}

// release recycles whatever pooled buffers half-gathered degraded
// stripes still hold (every exit path runs it; completed gathers have
// already drained).
func (a *rangeAssembler) release() {
	for _, g := range a.degraded {
		bufpool.PutAll(g.shards)
	}
	a.degraded = nil
}
