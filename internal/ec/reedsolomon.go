// Package ec implements systematic Reed-Solomon erasure coding over
// GF(2^8), built from scratch on internal/gf256.
//
// InfiniCache encodes every object with an RS(d+p) code: d data shards and
// p parity shards (the paper evaluates (10+1), (10+2), (10+4), (4+2), (5+1)
// and a (10+0) plain-split baseline). Any d of the d+p shards reconstruct
// the object, which gives the cache both fault tolerance against Lambda
// reclamation and the "first-d" straggler mitigation used by the proxy.
//
// The encoding matrix is derived from a Vandermonde matrix and then
// normalised (by multiplying with the inverse of its top d x d square) so
// the code is systematic: the first d shards are the data itself. The
// normalisation preserves the MDS property that any d rows are invertible.
//
// The data plane is built for throughput: the inner loops run on the
// vectorized gf256 kernels, and Encode/Verify/Reconstruct parallelise
// across shard sub-ranges on a process-wide bounded worker pool (see
// parallel.go). WithParallelism and WithScalarKernels derive restricted
// codecs — the serial, byte-at-a-time configuration is kept as the
// correctness oracle and benchmark baseline.
package ec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"infinicache/internal/bufpool"
	"infinicache/internal/gf256"
)

// Codec is an RS(d+p) encoder/decoder. It is immutable after creation and
// safe for concurrent use.
type Codec struct {
	d, p int
	// matrix is the (d+p) x d encoding matrix; its top d rows are identity.
	matrix *gf256.Matrix
	// parity is a copy of the bottom p rows of matrix.
	parity *gf256.Matrix
	// workers caps how many sub-ranges of one operation run concurrently
	// (see parallel.go); <= 1 means fully serial.
	workers int
	// scalar forces the byte-at-a-time gf256 reference kernels; used as
	// the oracle in tests and the baseline in benchmarks.
	scalar bool
}

// Common errors returned by the codec.
var (
	ErrInvalidShardCount = errors.New("ec: data shards must be >= 1 and parity shards >= 0")
	ErrTooManyShards     = errors.New("ec: data + parity shards must not exceed 256")
	ErrShardCount        = errors.New("ec: wrong number of shards supplied")
	ErrShardSize         = errors.New("ec: shards must be non-empty and of equal size")
	ErrTooFewShards      = errors.New("ec: too few shards to reconstruct")
	ErrShortData         = errors.New("ec: not enough data to fill requested size")
)

// New returns an RS codec with d data shards and p parity shards.
// p may be zero, in which case the codec degenerates to plain striping
// (the paper's (10+0) baseline).
func New(d, p int) (*Codec, error) {
	if d < 1 || p < 0 {
		return nil, ErrInvalidShardCount
	}
	if d+p > 256 {
		return nil, ErrTooManyShards
	}
	vm := gf256.Vandermonde(d+p, d)
	top := vm.SubMatrix(0, d, 0, d)
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen: distinct Vandermonde rows are always invertible.
		return nil, fmt.Errorf("ec: vandermonde top square not invertible: %w", err)
	}
	matrix := vm.Mul(topInv)
	normalizeParity(matrix, d, p)
	c := &Codec{
		d:       d,
		p:       p,
		matrix:  matrix,
		workers: runtime.GOMAXPROCS(0),
	}
	if p > 0 {
		c.parity = matrix.SubMatrix(d, d+p, 0, d)
	}
	return c, nil
}

// normalizeParity rescales the parity submatrix (rows d..d+p of the
// generator) so the first parity row is all ones and every later parity
// row leads with a one. Scaling a column of the parity block by a
// non-zero constant multiplies every d x d minor that includes the
// column by that constant, and likewise for scaling a parity row, so
// the MDS property ("any d rows invertible") is preserved — the same
// optimisation Jerasure applies to its Cauchy matrices. The payoff is
// in the kernels: coefficient 1 needs no table lookups, so a (d+1) code
// computes its parity with pure word-wide XOR.
//
// Column scaling is well-defined because every entry of an MDS parity
// block is non-zero (a zero at (i, j) would make the d rows formed by
// parity row i plus the identity rows other than j singular).
func normalizeParity(matrix *gf256.Matrix, d, p int) {
	if p == 0 {
		return
	}
	for j := 0; j < d; j++ {
		inv := gf256.Inv(matrix.At(d, j))
		for i := d; i < d+p; i++ {
			matrix.Set(i, j, gf256.Mul(matrix.At(i, j), inv))
		}
	}
	for i := d + 1; i < d+p; i++ {
		row := matrix.Row(i)
		if f := row[0]; f != 1 {
			gf256.MulSlice(gf256.Inv(f), row, row)
		}
	}
}

// WithParallelism returns a codec sharing this codec's matrices that
// runs at most n concurrent sub-ranges per operation. n <= 1 yields a
// fully serial codec (the configuration used as the benchmark baseline
// and by latency-sensitive small-object paths).
func (c *Codec) WithParallelism(n int) *Codec {
	if n < 1 {
		n = 1
	}
	nc := *c
	nc.workers = n
	return &nc
}

// WithScalarKernels returns a codec sharing this codec's matrices that
// computes with the byte-at-a-time gf256 reference kernels instead of
// the vectorized ones. Tests use it as the correctness oracle and the
// BenchmarkCodec*Scalar benchmarks as the before-optimisation baseline.
func (c *Codec) WithScalarKernels() *Codec {
	nc := *c
	nc.scalar = true
	return &nc
}

// DataShards returns d.
func (c *Codec) DataShards() int { return c.d }

// ParityShards returns p.
func (c *Codec) ParityShards() int { return c.p }

// TotalShards returns d+p.
func (c *Codec) TotalShards() int { return c.d + c.p }

// String returns the conventional "(d+p)" notation.
func (c *Codec) String() string { return fmt.Sprintf("(%d+%d)", c.d, c.p) }

func (c *Codec) checkShards(shards [][]byte, allowNil bool) (size int, err error) {
	if len(shards) != c.d+c.p {
		return 0, ErrShardCount
	}
	size = -1
	for _, s := range shards {
		if s == nil {
			if !allowNil {
				return 0, ErrShardSize
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size <= 0 {
		return 0, ErrShardSize
	}
	return size, nil
}

// Encode computes the p parity shards from the first d shards in place.
// shards must hold d+p equal-length slices; the first d contain data and
// the last p are overwritten with parity (previous contents are ignored,
// so parity buffers may be dirty, e.g. pool-recycled).
//
// Large shards are computed in parallel across sub-ranges by the bounded
// worker pool (parallel.go); each range walks all p parity rows while
// the range is cache-hot.
func (c *Codec) Encode(shards [][]byte) error {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return err
	}
	if c.p == 0 {
		return nil
	}
	c.forEachRange(size, func(lo, hi int) {
		for i := 0; i < c.p; i++ {
			c.accumulateRow(c.parity.Row(i), shards[:c.d], lo, hi, shards[c.d+i])
		}
	})
	return nil
}

// Verify reports whether the parity shards are consistent with the data
// shards.
func (c *Codec) Verify(shards [][]byte) (bool, error) {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return false, err
	}
	if c.p == 0 {
		return true, nil
	}
	var mismatch atomic.Bool
	c.forEachRange(size, func(lo, hi int) {
		// Re-base the range so the scratch buffer is only hi-lo bytes
		// (a full-width scratch per worker would rival the shard set).
		subs := make([][]byte, c.d)
		for j := range subs {
			subs[j] = shards[j][lo:hi]
		}
		scratch := bufpool.Get(hi - lo)
		defer bufpool.Put(scratch)
		for i := 0; i < c.p && !mismatch.Load(); i++ {
			c.accumulateRow(c.parity.Row(i), subs, 0, hi-lo, scratch)
			if !bytes.Equal(scratch, shards[c.d+i][lo:hi]) {
				mismatch.Store(true)
			}
		}
	})
	return !mismatch.Load(), nil
}

// Reconstruct fills every nil entry in shards (data and parity) from the
// surviving shards. At least d shards must be present. The rebuilt
// shards are drawn from bufpool — a degraded read is the common read
// (first-d of d+p usually includes a parity chunk), so they must come
// from, and be able to go back to, the class shard-sized Gets use — and
// belong to the caller like the rest of the set: release it with
// bufpool.PutAll, as every caller in internal/client does, or leave it
// to the garbage collector.
func (c *Codec) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

// ReconstructData fills only the nil data shards, leaving missing parity
// shards nil. This is the GET-path operation: the client only needs the
// data shards back to reassemble the object. Rebuilt shards come from
// bufpool, as in Reconstruct.
func (c *Codec) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

func (c *Codec) reconstruct(shards [][]byte, dataOnly bool) error {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return err
	}

	present := 0
	for _, s := range shards {
		if s != nil {
			present++
		}
	}
	if present == len(shards) {
		return nil // nothing to do
	}
	if present < c.d {
		return ErrTooFewShards
	}

	// Gather d surviving rows of the encoding matrix and the matching shards.
	rows := make([]int, 0, c.d)
	sub := make([][]byte, 0, c.d)
	for i := 0; i < c.d+c.p && len(rows) < c.d; i++ {
		if shards[i] != nil {
			rows = append(rows, i)
			sub = append(sub, shards[i])
		}
	}
	dec, err := c.matrix.SelectRows(rows).Invert()
	if err != nil {
		return fmt.Errorf("ec: reconstruct: %w", err)
	}

	// Recover missing data shards: data_j = dec.Row(j) . sub. All missing
	// shards across one sub-range are rebuilt by the same worker while
	// the surviving shards' range is cache-hot.
	var missingData []int
	for j := 0; j < c.d; j++ {
		if shards[j] == nil {
			shards[j] = bufpool.Get(size)
			missingData = append(missingData, j)
		}
	}
	if len(missingData) > 0 {
		c.forEachRange(size, func(lo, hi int) {
			for _, j := range missingData {
				c.accumulateRow(dec.Row(j), sub, lo, hi, shards[j])
			}
		})
	}
	if dataOnly {
		return nil
	}
	// Recover missing parity shards from the (now complete) data shards.
	var missingParity []int
	for i := 0; i < c.p; i++ {
		if shards[c.d+i] == nil {
			shards[c.d+i] = bufpool.Get(size)
			missingParity = append(missingParity, i)
		}
	}
	if len(missingParity) > 0 {
		c.forEachRange(size, func(lo, hi int) {
			for _, i := range missingParity {
				c.accumulateRow(c.parity.Row(i), shards[:c.d], lo, hi, shards[c.d+i])
			}
		})
	}
	return nil
}

// Split partitions data into d+p equal-size shards: the first d hold the
// (zero-padded) data and the final p are allocated for parity. The input
// slice is copied, never aliased.
func (c *Codec) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, errors.New("ec: cannot split empty data")
	}
	shardSize := c.ShardSize(len(data))
	shards := make([][]byte, c.d+c.p)
	for i := range shards {
		shards[i] = make([]byte, shardSize)
	}
	if err := c.SplitInto(data, shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// SplitInto is Split with caller-provided shard buffers, the zero-alloc
// variant used by pooled data paths (internal/client feeds it
// bufpool-recycled buffers). shards must hold d+p slices of exactly
// ShardSize(len(data)) bytes. Data shards are fully overwritten
// (including the zero padding after the data tail, so dirty recycled
// buffers are safe); parity shard contents are left untouched for
// Encode to overwrite.
func (c *Codec) SplitInto(data []byte, shards [][]byte) error {
	if len(data) == 0 {
		return errors.New("ec: cannot split empty data")
	}
	if len(shards) != c.d+c.p {
		return ErrShardCount
	}
	shardSize := c.ShardSize(len(data))
	for _, s := range shards {
		if len(s) != shardSize {
			return ErrShardSize
		}
	}
	for i := 0; i < c.d; i++ {
		lo := i * shardSize
		n := 0
		if lo < len(data) {
			hi := lo + shardSize
			if hi > len(data) {
				hi = len(data)
			}
			n = copy(shards[i], data[lo:hi])
		}
		tail := shards[i][n:]
		for j := range tail {
			tail[j] = 0
		}
	}
	return nil
}

// Join reassembles the original object of length size from the data
// shards (shards[0:d]). Parity shards are ignored.
func (c *Codec) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < c.d {
		return nil, ErrShardCount
	}
	out := make([]byte, 0, size)
	for i := 0; i < c.d && len(out) < size; i++ {
		s := shards[i]
		if s == nil {
			return nil, ErrTooFewShards
		}
		need := size - len(out)
		if need > len(s) {
			need = len(s)
		}
		out = append(out, s[:need]...)
	}
	if len(out) < size {
		return nil, ErrShortData
	}
	return out, nil
}

// ShardSize returns the per-shard size the codec uses for an object of
// objectSize bytes.
func (c *Codec) ShardSize(objectSize int) int {
	return (objectSize + c.d - 1) / c.d
}
