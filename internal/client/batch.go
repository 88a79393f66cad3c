package client

import (
	"context"
	"errors"
	"sync"

	"infinicache/internal/protocol"
)

// KV is one key/value pair of an MPut.
type KV struct {
	Key   string
	Value []byte
}

// GetResult is one key's outcome of an MGet. On success Object holds
// the zero-copy handle (the caller Releases it); otherwise Err carries
// the per-key failure (ErrMiss, ErrLost, ErrTimeout, ctx.Err(), ...).
type GetResult struct {
	Key    string
	Object *Object
	Err    error
}

// PutResult is one key's outcome of an MPut.
type PutResult struct {
	Key string
	Err error
}

// MGet fetches a batch of keys. Keys are grouped by their owning proxy
// (the consistent-hashing ring) and each group rides its proxy
// connection as one pipelined burst: every GET frame is written back to
// back down the single writer and the DATA fan-in is collected off one
// shared response channel — N keys cost one windowed round trip per
// owning proxy instead of N sequential ones. Results are positionally
// aligned with keys; each successful Object must be Released by the
// caller.
func (c *Client) MGet(ctx context.Context, keys ...string) []GetResult {
	res := make([]GetResult, len(keys))
	groups := make(map[string][]int)
	for i, k := range keys {
		res[i].Key = k
		c.stats.Gets.Add(1)
		info, err := c.proxyFor(k)
		if err != nil {
			res[i].Err = err
			continue
		}
		groups[info.Addr] = append(groups[info.Addr], i)
	}
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			c.mgetBurst(ctx, addr, keys, idxs, res)
		}(addr, idxs)
	}
	wg.Wait()
	// The burst was attempt 1 of every key. Each key it did not settle
	// goes to the op driver with that outcome, and from there gets
	// exactly the treatment GetObject gives it: transients retried,
	// busy-write windows waited out, redirects and fallbacks followed,
	// a dead proxy re-routed, a streamed object re-read ranged.
	for i := range res {
		if res[i].Err != nil {
			res[i].Object, res[i].Err = c.getObject(ctx, keys[i], res[i].Err)
		}
	}
	return res
}

// mgetBurst runs one proxy's share of an MGet: claim one seq per key on
// one shared channel, write all GET frames, then collect. (Unlike the
// single-key path, MGet does not re-insert missing chunks; the burst
// stays read-only.)
func (c *Client) mgetBurst(ctx context.Context, addr string, keys []string, idxs []int, res []GetResult) {
	total := c.codec.TotalShards()
	// The shared channel must buffer every frame the burst can receive:
	// up to total DATA frames plus a MISS/ERR per key.
	w, err := c.claimBurst(addr, len(idxs), len(idxs)*(total+2))
	if err != nil {
		for _, i := range idxs {
			res[i].Err = err
		}
		return
	}
	defer w.release()
	gathers := make([]gather, len(idxs))
	defer func() {
		// Every gather not handed to a result returns its partial shards
		// to the pool.
		for k, i := range idxs {
			if res[i].Object == nil {
				gathers[k].obj.Release()
			}
		}
	}()
	// One windowed burst: all GET frames are staged back to back under
	// one Pin window and the closing Flush ships them in one write —
	// which must happen before collect blocks on responses.
	w.pc.conn.Pin()
	for k, i := range idxs {
		gathers[k].obj = newObject(total)
		if err := w.pc.conn.Forward(protocol.TGet, w.seq(k), keys[i], "", nil, nil); err != nil {
			res[i].Err = connErr("get", err)
			w.finish(k)
		}
	}
	if err = connErr("get flush", w.pc.conn.Flush()); err == nil {
		err = c.collect(ctx, &w, func(k int, msg *protocol.Message) bool {
			// The per-frame state machine is the single-key one; only the
			// result recording differs.
			i := idxs[k]
			done, ferr := c.applyGetFrame(&gathers[k], keys[i], msg)
			if done {
				res[i].Err = ferr
				if ferr == nil {
					res[i].Object = gathers[k].obj
				}
			}
			return done
		})
	}
	for k, i := range idxs {
		if err != nil && w.pending(k) {
			res[i].Err = err
		}
	}
}

// claimBurst claims n seqs on the connection to addr for one proxy's
// share of a batch.
func (c *Client) claimBurst(addr string, n, buf int) (wait, error) {
	pc, err := c.conn(addr)
	if err != nil {
		return wait{}, err
	}
	return c.claim(pc, n, buf)
}

// MPut stores a batch of key/value pairs. Pairs are grouped by owning
// proxy; each group's chunks — every pair's d+p shard SETs — are
// written down the proxy connection back to back as one pipelined
// burst and acknowledged off one shared response channel, so N puts
// cost one windowed round trip per owning proxy. Results are
// positionally aligned with pairs.
func (c *Client) MPut(ctx context.Context, pairs ...KV) []PutResult {
	res := make([]PutResult, len(pairs))
	groups := make(map[string][]int)
	for i, kv := range pairs {
		res[i].Key = kv.Key
		if len(kv.Value) == 0 {
			res[i].Err = errors.New("client: empty value")
			continue
		}
		c.stats.Puts.Add(1)
		info, err := c.proxyFor(kv.Key)
		if err != nil {
			res[i].Err = err
			continue
		}
		groups[info.Addr] = append(groups[info.Addr], i)
	}
	var wg sync.WaitGroup
	for addr, idxs := range groups {
		wg.Add(1)
		go func(addr string, idxs []int) {
			defer wg.Done()
			c.mputBurst(ctx, addr, pairs, idxs, res)
		}(addr, idxs)
	}
	wg.Wait()
	// As in MGet, the burst was attempt 1: every pair it left failed
	// goes to the op driver with that outcome (the driver returns final
	// errors as they are). The proxy failed any refused or transient
	// generation wholesale, so a retry writes from a clean slate.
	for i := range res {
		if first := res[i].Err; first != nil {
			res[i].Err = c.do(ctx, pairs[i].Key, func(rt route) error {
				err := first
				first = nil
				if err == nil {
					err = c.tryPut(ctx, rt, pairs[i].Key, pairs[i].Value, nil)
				}
				return err
			})
		}
	}
	return res
}

// mputBurst runs one proxy's share of an MPut: pair k of the group owns
// tags k·(d+p) .. k·(d+p)+d+p-1 of one claim.
func (c *Client) mputBurst(ctx context.Context, addr string, pairs []KV, idxs []int, res []PutResult) {
	total := c.codec.TotalShards()
	// The op budget starts before encoding, as on the single-key path.
	w, err := c.claimBurst(addr, len(idxs)*total, len(idxs)*total+1)
	if err != nil {
		for _, i := range idxs {
			res[i].Err = err
		}
		return
	}
	defer w.release()
	// Encode-and-send one pair at a time: staging copies the payload into
	// the socket synchronously, so each pair's pooled shard set is
	// recycled as soon as its frames are written — the burst holds one
	// shard set at peak, not the whole batch, and the writer still sees
	// every SET back to back before any ACK is read. One Pin window per
	// pair: the pair's d+p SETs coalesce into O(1) writes, while other
	// ops sharing the connection are not stalled behind the next pair's
	// encode.
	poolSize := c.proxyInfo(addr).PoolSize
	for k, i := range idxs {
		if res[i].Err = c.stageValue(&w, k*total, poolSize, pairs[i].Key, pairs[i].Value, putSet, nil); res[i].Err != nil {
			for j := 0; j < total; j++ {
				w.finish(k*total + j)
			}
		}
	}
	// The shared wait leaves exactly the unanswered chunks pending,
	// already CANCELled at the proxy on abandon, so the per-pair failures
	// fall out of the survivor set.
	err = c.collect(ctx, &w, func(tag int, msg *protocol.Message) bool {
		i := idxs[tag/total]
		res[i].Err = c.foldAck(res[i].Err, pairs[i].Key, tag%total, msg)
		return true
	})
	for tag := 0; err != nil && tag < w.n; tag++ {
		if w.pending(tag) {
			i := idxs[tag/total]
			res[i].Err = worse(res[i].Err, err)
		}
	}
}
