package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"infinicache/internal/bufpool"
)

// dialPair returns both ends of one fresh connection.
func dialPair(t *testing.T) (dialed, served *conn) {
	t.Helper()
	nw := NewNetwork()
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	d, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); s.Close() })
	return d.(*conn), s.(*conn)
}

// waitFor polls cond (under the half's lock) until it holds: the tests
// below wait on the state a parked Read or Write leaves behind, never
// on a guessed delay.
func waitFor(t *testing.T, h *half, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.mu.Lock()
		ok := cond()
		h.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) ^ seed
	}
	return b
}

// TestNetworkOrderAcrossSegments pushes writes of awkward sizes — below,
// at and above a segment, and above the whole buffer — through reads of
// other awkward sizes and requires the byte stream to arrive intact.
func TestNetworkOrderAcrossSegments(t *testing.T) {
	a, b := dialPair(t)
	sizes := []int{1, 7, segSize - 1, 2, segSize, segSize + 3, 3*segSize + 11, connBuffer + 4097, 5}
	var want []byte
	for i, n := range sizes {
		want = append(want, pattern(n, byte(i))...)
	}
	go func() {
		off := 0
		for _, n := range sizes {
			if _, err := a.Write(want[off : off+n]); err != nil {
				t.Error(err)
			}
			off += n
		}
		a.Close()
	}()
	var got []byte
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 2*segSize)
	for {
		n, err := b.Read(buf[:1+rng.Intn(len(buf))])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream of %d bytes arrived as %d bytes, or out of order", len(want), len(got))
	}
}

// TestNetworkBackPressure: with nobody reading, a Write stops at the cap
// and holds no more than the cap; every byte read lets it advance.
func TestNetworkBackPressure(t *testing.T) {
	a, b := dialPair(t)
	const extra = 3 * segSize
	want := pattern(connBuffer+extra, 9)
	done := make(chan error, 1)
	go func() {
		_, err := a.Write(want)
		done <- err
	}()
	h := a.wr
	waitFor(t, h, "the writer to fill the buffer", func() bool { return h.n == connBuffer })
	select {
	case err := <-done:
		t.Fatalf("Write of cap+%d bytes returned (%v) with nobody reading", extra, err)
	default:
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(b, got[:segSize]); err != nil {
		t.Fatal(err)
	}
	// One segment out, one segment's worth in: the writer is parked at
	// the cap again, two segments short of done.
	waitFor(t, h, "the writer to refill the buffer", func() bool { return h.n == connBuffer })
	if _, err := io.ReadFull(b, got[segSize:]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes damaged across the back-pressured write")
	}
}

// TestNetworkCloseUnblocks parks a Read and a Write and closes either
// end under each: all four must return, the local closes with
// io.ErrClosedPipe, the peer's close with io.EOF for the reader and
// io.ErrClosedPipe for the writer.
func TestNetworkCloseUnblocks(t *testing.T) {
	for _, tc := range []struct {
		name       string
		write      bool // park a Write at the cap (else a Read on an empty pipe)
		closeLocal bool
		want       error
	}{
		{"read/local close", false, true, io.ErrClosedPipe},
		{"read/peer close", false, false, io.EOF},
		{"write/local close", true, true, io.ErrClosedPipe},
		{"write/peer close", true, false, io.ErrClosedPipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := dialPair(t)
			done := make(chan error, 1)
			if tc.write {
				go func() {
					_, err := a.Write(make([]byte, connBuffer+1))
					done <- err
				}()
				waitFor(t, a.wr, "a parked Write", func() bool { return a.wr.n == connBuffer })
			} else {
				go func() {
					_, err := a.Read(make([]byte, 16))
					done <- err
				}()
				waitFor(t, a.rd, "a parked Read", func() bool { return a.rd.dst != nil })
			}
			if tc.closeLocal {
				a.Close()
			} else {
				b.Close()
			}
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("parked call returned %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not unblock the parked call")
			}
		})
	}
}

// TestNetworkDrainBeforeEOF: what an end wrote before closing is still
// the peer's to read; io.EOF comes after the last byte, and the closed
// end itself can no longer be used.
func TestNetworkDrainBeforeEOF(t *testing.T) {
	a, b := dialPair(t)
	want := pattern(segSize+100, 3)
	if _, err := a.Write(want); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, err %v; want the %d written before Close and a clean EOF", len(got), err, len(want))
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to a closed peer: %v, want io.ErrClosedPipe", err)
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read on a closed end: %v, want io.ErrClosedPipe", err)
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write on a closed end: %v, want io.ErrClosedPipe", err)
	}
}

// TestNetworkNames: a name is dialable exactly while a listener holds
// it, one listener at a time, and two networks do not share names;
// Close fails an Accept whether it parked before or comes after.
func TestNetworkNames(t *testing.T) {
	nw := NewNetwork()
	if _, err := nw.Dial("nobody"); err == nil {
		t.Fatal("dial of a name nobody bound succeeded")
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Addr().String(); got != "srv" {
		t.Fatalf("listener address %q, want its name", got)
	}
	if _, err := nw.Listen("srv"); err == nil {
		t.Fatal("second Listen on a bound name succeeded")
	}
	if _, err := NewNetwork().Dial("srv"); err == nil {
		t.Fatal("a name bound on one network was dialable on another")
	}

	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accepted <- err
	}()
	ln.Close()
	if err := <-accepted; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept on a closed listener: %v, want net.ErrClosed", err)
	}
	if _, err := nw.Dial("srv"); err == nil {
		t.Fatal("dial of a closed name succeeded")
	}
	if ln2, err := nw.Listen("srv"); err != nil {
		t.Fatalf("a closed name cannot be bound again: %v", err)
	} else {
		ln2.Close()
	}
}

// TestNetworkOrphanHungUp: Close of a listener hangs up on connections
// still waiting for Accept.
func TestNetworkOrphanHungUp(t *testing.T) {
	nw := NewNetwork()
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	c, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a never-accepted conn after listener Close: %v, want io.EOF", err)
	}
}

// TestNetworkSegmentsReturnToPool: bytes nobody will read go back to
// bufpool when the reading end closes — a full buffer's worth here, so
// at least one of the next Gets of that class must hand back a segment
// the pipe held (sync.Pool may drop some, never all sixteen).
func TestNetworkSegmentsReturnToPool(t *testing.T) {
	a, b := dialPair(t)
	if _, err := a.Write(make([]byte, connBuffer)); err != nil {
		t.Fatal(err)
	}
	held := make(map[*byte]bool)
	for _, seg := range a.wr.segs {
		held[unsafe.SliceData(seg)] = true
	}
	if len(held) != connBuffer/segSize {
		t.Fatalf("a full buffer sits in %d segments, want %d", len(held), connBuffer/segSize)
	}
	b.Close()
	if a.wr.segs != nil || a.wr.n != 0 {
		t.Fatal("closed reader still holds segments")
	}
	recycled := 0
	for i := 0; i < 2*len(held); i++ {
		if held[unsafe.SliceData(bufpool.Get(segSize))] {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("none of the pipe's segments came back out of bufpool after Close")
	}
}

// TestNetworkConcurrentWriters: several goroutines write length-framed
// records — many larger than a segment, the total far over the cap — to
// one end while one reader parses the other. Each record must arrive
// whole (one Write is never interleaved with another) and each writer's
// records in the order it wrote them. Run under -race -count=10 in CI.
func TestNetworkConcurrentWriters(t *testing.T) {
	a, b := dialPair(t)
	const writers, records = 6, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < records; r++ {
				n := 1 + rng.Intn(3*segSize)
				rec := make([]byte, 8+n)
				binary.BigEndian.PutUint16(rec[0:], uint16(w))
				binary.BigEndian.PutUint16(rec[2:], uint16(r))
				binary.BigEndian.PutUint32(rec[4:], uint32(n))
				copy(rec[8:], pattern(n, byte(w*records+r)))
				if _, err := a.Write(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); a.Close() }()

	next := make([]int, writers)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(b, hdr[:]); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		w, r := int(binary.BigEndian.Uint16(hdr[0:])), int(binary.BigEndian.Uint16(hdr[2:]))
		n := int(binary.BigEndian.Uint32(hdr[4:]))
		if w >= writers || r != next[w] || n > 3*segSize {
			t.Fatalf("record header (writer %d, record %d, %d bytes) is not the next one writer %d owes (%d): writes interleaved", w, r, n, w, next[w%writers])
		}
		next[w]++
		body := make([]byte, n)
		if _, err := io.ReadFull(b, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, pattern(n, byte(w*records+r))) {
			t.Fatalf("writer %d record %d damaged", w, r)
		}
	}
	for w, n := range next {
		if n != records {
			t.Fatalf("writer %d delivered %d of %d records", w, n, records)
		}
	}
}
