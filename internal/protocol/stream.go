package protocol

import (
	"strconv"
	"strings"
)

// Streaming object plane wire contract.
//
// A streamed object is a sequence of stripes, each an independent
// erasure-coded sub-object: stripe s holds object bytes
// [s*stripeData, min((s+1)*stripeData, size)) split across d data
// shards plus parity. Stripe 0 lives under the object's own key — a
// single-stripe streamed PUT is byte-identical to a legacy PUT — and
// stripe 0's mapping entry is the object's head: it alone carries the
// stream geometry (total size and data bytes per full stripe) that
// lets the proxy plan ranged reads. Stripes s > 0 live under
// StripeKey(parent, s).
//
// SET frames for a head entry append the stream geometry after the
// chunk checksum:
//
//	Args[StreamArgSize]       total object size in bytes
//	Args[StreamArgStripeData] data bytes per full stripe
//
// A ranged GET (client -> proxy) extends the TGet frame:
//
//	Args[0]            authoritative flag (as for whole-object GET)
//	Args[RangeArgFlag] 1 marks the request ranged
//	Args[RangeArgOff]  byte offset into the object
//	Args[RangeArgLen]  byte count requested
//
// The proxy answers with one TData frame per fetched data chunk,
// followed by a terminal TData frame with Args[0] == -1 and an empty
// payload (the terminal frame is the sole reply for an empty or fully
// clamped-away range). Per-chunk reply args are indexed by the
// RangeData* constants; the client derives the chunk's object span
// with ShardSpan and copies only the bytes intersecting its request.
const (
	// StreamArgSize / StreamArgStripeData index the stream geometry in
	// a head-entry SET's Args. Only stripe-0 SETs of streamed objects
	// carry them; their absence (nargs <= StreamArgSize) marks a legacy
	// single-stripe object.
	StreamArgSize       = 9
	StreamArgStripeData = 10

	// Ranged TGet request args (Args[0] stays the authoritative flag).
	RangeArgFlag = 1
	RangeArgOff  = 2
	RangeArgLen  = 3

	// Ranged TData reply args, one frame per fetched chunk.
	RangeDataArgIdx         = 0 // data-shard index within the stripe; -1 on the terminal frame
	RangeDataArgSize        = 1 // total object size (every frame, including terminal)
	RangeDataArgShards      = 2 // d for the stripe
	RangeDataArgTotal       = 3 // d+p for the stripe
	RangeDataArgSum         = 4 // chunk checksum
	RangeDataArgStripe      = 5 // stripe index
	RangeDataArgStripeStart = 6 // object offset of the stripe's first byte
	RangeDataArgStripeLen   = 7 // data bytes in the stripe
	RangeDataArgFlags       = 8 // RangeFlag* bits

	// RangeFlagDegraded marks a chunk from a degraded stripe: the proxy
	// could not serve the exact intersecting shards and is fanning out d
	// present chunks instead; the client must gather the stripe and
	// reconstruct before slicing.
	RangeFlagDegraded = 1

	// StreamObjectFlag in a TErr's Args[0] answers a whole-object GET of
	// a multi-stripe object: the frame is not an error but a redirect to
	// the ranged path; Args[1] carries the object's total size so the
	// client can reissue the read as GetRange(key, 0, size).
	StreamObjectFlag = 2
)

// stripeSep separates a parent key from its stripe suffix. The unit
// separator keeps stripe keys out of the way of ordinary key syntax
// while remaining a legal key byte on the wire.
const stripeSep = "\x1fs"

// StripeKey returns the mapping key for stripe s of parent. Stripe 0
// is the head and lives under the parent key itself.
func StripeKey(parent string, stripe int) string {
	if stripe == 0 {
		return parent
	}
	return parent + stripeSep + strconv.Itoa(stripe)
}

// ParseStripeKey splits a mapping key into its parent key and stripe
// index. Keys without a stripe suffix are stripe 0 of themselves.
func ParseStripeKey(key string) (parent string, stripe int) {
	i := strings.LastIndex(key, stripeSep)
	if i < 0 {
		return key, 0
	}
	n, err := strconv.Atoi(key[i+len(stripeSep):])
	if err != nil || n <= 0 {
		return key, 0
	}
	return key[:i], n
}

// ClampRange clamps the requested range [off, off+n) to [0, size),
// returning the clamped offset and length. Negative offsets and
// lengths clamp to empty, as do ranges entirely past EOF.
func ClampRange(size, off, n int64) (int64, int64) {
	if off < 0 {
		n += off
		off = 0
	}
	if n < 0 {
		n = 0
	}
	if off > size {
		off = size
	}
	if off+n > size {
		n = size - off
	}
	return off, n
}

// StripeCount returns the number of stripes an object of size bytes
// occupies at stripeData data bytes per full stripe. Zero-byte objects
// still occupy one (empty) stripe.
func StripeCount(size, stripeData int64) int {
	if stripeData <= 0 || size <= 0 {
		return 1
	}
	return int((size + stripeData - 1) / stripeData)
}

// ShardSizeFor returns the data-shard size for a stripe holding
// stripeLen bytes across d data shards: ceil(stripeLen/d), matching
// the codec's zero-padded split.
func ShardSizeFor(stripeLen int64, d int) int64 {
	if d <= 0 {
		return 0
	}
	return (stripeLen + int64(d) - 1) / int64(d)
}

// ShardSpan returns the object byte range [start, end) covered by data
// shard idx of a stripe whose data bytes span
// [stripeStart, stripeStart+stripeLen). The final shard's span is
// clamped to the stripe (its zero padding covers no object bytes); a
// shard entirely inside the padding covers the empty range.
func ShardSpan(stripeStart, stripeLen int64, d, idx int) (start, end int64) {
	ss := ShardSizeFor(stripeLen, d)
	start = stripeStart + int64(idx)*ss
	end = start + ss
	if limit := stripeStart + stripeLen; end > limit {
		end = limit
	}
	if start > end {
		start = end
	}
	return start, end
}

// StripeSpan describes one stripe intersected by a planned ranged
// read: which data shards to fetch and where the stripe's data bytes
// sit in the object.
type StripeSpan struct {
	Stripe int   // stripe index
	Start  int64 // object offset of the stripe's first data byte
	Len    int64 // data bytes in the stripe (== stripeData except possibly the last)
	Shards []int // intersecting data-shard indexes, ascending
}

// PlanRange maps the byte range [off, off+n) of a streamed object onto
// the minimal set of data chunks that cover it: for each intersected
// stripe, exactly the data shards whose spans overlap the clamped
// range — never parity, never a full-d fan-out for a sub-stripe read.
// The range is clamped with ClampRange first; an empty result means an
// empty (or fully past-EOF) request.
func PlanRange(size, stripeData int64, d int, off, n int64) []StripeSpan {
	off, n = ClampRange(size, off, n)
	if n == 0 || d <= 0 || stripeData <= 0 {
		return nil
	}
	end := off + n
	var spans []StripeSpan
	for s := int(off / stripeData); ; s++ {
		start := int64(s) * stripeData
		if start >= end {
			break
		}
		slen := stripeData
		if start+slen > size {
			slen = size - start
		}
		ss := ShardSizeFor(slen, d)
		lo, hi := off, end
		if lo < start {
			lo = start
		}
		if limit := start + slen; hi > limit {
			hi = limit
		}
		if lo >= hi {
			break
		}
		first := int((lo - start) / ss)
		last := int((hi - 1 - start) / ss)
		sp := StripeSpan{Stripe: s, Start: start, Len: slen}
		for i := first; i <= last && i < d; i++ {
			// Skip shards that are pure zero padding (possible when the
			// final stripe's data rounds up past its byte count).
			if cs, ce := ShardSpan(start, slen, d, i); cs < ce {
				sp.Shards = append(sp.Shards, i)
			}
		}
		if len(sp.Shards) > 0 {
			spans = append(spans, sp)
		}
	}
	return spans
}
