// Package streamtest is the byte-exact oracle harness for the
// streaming object plane: every object written through the streaming
// client API keeps an in-memory reference copy, and every ranged or
// whole-object read is checked against the oracle's slice of it —
// including the clamping semantics (empty and past-EOF ranges clamp,
// they never error). The package is test-only: the property suite and
// the wide-range regression share this one definition of "correct
// bytes".
package streamtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"infinicache"
	"infinicache/internal/protocol"
)

// Harness couples one deployment client with the oracle store. Its
// methods return errors rather than calling t.Fatal so property loops
// can annotate failures with the generating seed and geometry.
type Harness struct {
	Client *infinicache.Client

	mu      sync.Mutex
	objects map[string][]byte
}

// New wraps a client. The harness does not own the client's lifetime.
func New(cl *infinicache.Client) *Harness {
	return &Harness{Client: cl, objects: make(map[string][]byte)}
}

// Pattern returns n random bytes from rng. Random (rather than
// periodic) payloads catch shard-index and offset mix-ups that a
// repeating pattern can alias away.
func Pattern(rng *rand.Rand, n int64) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// PutStream stores data under key through the streaming PUT path and
// records the oracle copy.
func (h *Harness) PutStream(ctx context.Context, key string, data []byte) error {
	if err := h.Client.PutReader(ctx, key, int64(len(data)), bytes.NewReader(data)); err != nil {
		return fmt.Errorf("PutReader(%s, %d bytes): %w", key, len(data), err)
	}
	h.remember(key, data)
	return nil
}

// PutLegacy stores data under key through the materialised PUT path
// (PutCtx) and records the oracle copy, so ranged reads can be checked
// against objects that never streamed.
func (h *Harness) PutLegacy(ctx context.Context, key string, data []byte) error {
	if err := h.Client.PutCtx(ctx, key, data); err != nil {
		return fmt.Errorf("PutCtx(%s, %d bytes): %w", key, len(data), err)
	}
	h.remember(key, data)
	return nil
}

func (h *Harness) remember(key string, data []byte) {
	h.mu.Lock()
	h.objects[key] = append([]byte(nil), data...)
	h.mu.Unlock()
}

// oracle returns the reference copy.
func (h *Harness) oracle(key string) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, ok := h.objects[key]
	if !ok {
		return nil, fmt.Errorf("oracle has no object %q", key)
	}
	return data, nil
}

// CheckRange reads [off, off+n) through GetRange and compares it to the
// oracle slice under the wire contract's clamping rules: negative,
// empty, and past-EOF ranges clamp to the empty slice and must not
// error.
func (h *Harness) CheckRange(ctx context.Context, key string, off, n int64) error {
	data, err := h.oracle(key)
	if err != nil {
		return err
	}
	coff, cn := protocol.ClampRange(int64(len(data)), off, n)
	want := data[coff : coff+cn]

	got, err := h.Client.GetRange(ctx, key, off, n)
	if err != nil {
		return fmt.Errorf("GetRange(%s, %d, %d): %w", key, off, n, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("GetRange(%s, %d, %d) returned %d bytes not matching oracle[%d:%d] (%s)",
			key, off, n, len(got), coff, coff+cn, diffAt(got, want))
	}
	return nil
}

// CheckObject reads the whole object through GetObject — exercising the
// streamed-object fallback for multi-stripe objects and the plain
// first-d path for single-stripe ones — and compares it to the oracle.
func (h *Harness) CheckObject(ctx context.Context, key string) error {
	data, err := h.oracle(key)
	if err != nil {
		return err
	}
	obj, err := h.Client.GetObject(ctx, key)
	if err != nil {
		return fmt.Errorf("GetObject(%s): %w", key, err)
	}
	defer obj.Release()
	got := obj.Bytes()
	if !bytes.Equal(got, data) {
		return fmt.Errorf("GetObject(%s) returned %d bytes, oracle has %d (%s)",
			key, len(got), len(data), diffAt(got, data))
	}
	return nil
}

// CheckMiss asserts the key reads as a clean miss.
func (h *Harness) CheckMiss(ctx context.Context, key string) error {
	_, err := h.Client.GetRange(ctx, key, 0, 1)
	if errors.Is(err, infinicache.ErrMiss) {
		return nil
	}
	return fmt.Errorf("GetRange(%s) on absent key = %v, want ErrMiss", key, err)
}

// diffAt pinpoints the first mismatching byte for failure messages.
func diffAt(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("first diff at byte %d: %#x != %#x", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length mismatch %d != %d", len(got), len(want))
}
