package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
)

// Object content is a pure function of (key index, version): every
// object is a window into one shared pseudo-random pattern, and the
// window's start position is the (key, version) stamp. Byte pos of the
// object (k, v) is pattern[(base(k, v)+pos) mod len(pattern)].
//
// Whole objects are at most maxWholeObject bytes and bases stay below
// baseSpan, so a whole object never wraps and its PUT value is a
// zero-copy slice of the pattern (the client only borrows the value).
// Streamed objects wrap; patternReader and verifier handle that.
const (
	maxWholeObject = 8 << 20
	baseSpan       = 1 << 20
	patternLen     = maxWholeObject + baseSpan + 61 // odd length: wraps never align with shard sizes
	stampLen       = 16                             // bytes compared at head and tail of every read
)

var pattern = func() []byte {
	b := make([]byte, patternLen)
	rand.New(rand.NewSource(0x1c0ffee)).Read(b)
	return b
}()

// contentBase is the pattern position of byte 0 of object (key index,
// version). Consecutive versions of one key and neighbouring keys land
// thousands of bytes apart, so a stale or misrouted read never matches
// the stamp.
func contentBase(keyIdx int, version uint32) int {
	return int((uint64(keyIdx)*7919 + uint64(version)*104729 + 17) % baseSpan)
}

// wholeValue returns the PUT value of a whole object: a read-only
// window of the pattern.
func wholeValue(base, size int) []byte { return pattern[base : base+size] }

// patternReader streams size bytes of the object whose byte 0 sits at
// pattern position base.
type patternReader struct {
	pos, size int64
	base      int
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.pos >= r.size {
		return 0, io.EOF
	}
	if rem := r.size - r.pos; int64(len(p)) > rem {
		p = p[:rem]
	}
	at := int((int64(r.base) + r.pos) % patternLen)
	n := copy(p, pattern[at:])
	r.pos += int64(n)
	return n, nil
}

// verifier is an io.Writer that checks the bytes written to it against
// the expected content: always the first and last stampLen bytes and
// the total length, and every byte when full is set. It never copies
// more than the tail stamp.
type verifier struct {
	base int   // pattern position of object byte 0
	off  int64 // object offset of the first byte written (ranged reads)
	want int64 // expected byte count
	full bool

	n    int64
	tail [stampLen]byte
	bad  bool
}

func (v *verifier) reset(base int, off, want int64, full bool) {
	*v = verifier{base: base, off: off, want: want, full: full}
}

// expectAt compares p with the content at object offset pos.
func (v *verifier) expectAt(pos int64, p []byte) bool {
	at := int((int64(v.base) + pos) % patternLen)
	for len(p) > 0 {
		seg := pattern[at:]
		if len(seg) > len(p) {
			seg = seg[:len(p)]
		}
		if !bytes.Equal(p[:len(seg)], seg) {
			return false
		}
		p = p[len(seg):]
		at = 0
	}
	return true
}

func (v *verifier) Write(p []byte) (int, error) {
	pos := v.off + v.n
	switch {
	case v.full:
		if !v.expectAt(pos, p) {
			v.bad = true
		}
	case v.n < stampLen:
		head := p
		if rem := stampLen - v.n; int64(len(head)) > rem {
			head = head[:rem]
		}
		if !v.expectAt(pos, head) {
			v.bad = true
		}
	}
	// Keep the last stampLen bytes seen for the tail check.
	if len(p) >= stampLen {
		copy(v.tail[:], p[len(p)-stampLen:])
	} else {
		copy(v.tail[:], v.tail[len(p):])
		copy(v.tail[stampLen-len(p):], p)
	}
	v.n += int64(len(p))
	return len(p), nil
}

// err reports what was wrong with the bytes seen, or nil.
func (v *verifier) err() error {
	switch {
	case v.n != v.want:
		return fmt.Errorf("read %d bytes, want %d", v.n, v.want)
	case v.bad:
		return fmt.Errorf("content mismatch")
	}
	t := int64(stampLen)
	if v.n < t {
		t = v.n
	}
	if !v.expectAt(v.off+v.n-t, v.tail[stampLen-t:]) {
		return fmt.Errorf("tail stamp mismatch")
	}
	return nil
}
