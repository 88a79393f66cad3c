package protocol

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"infinicache/internal/netsim"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestRoundTripAllFields(t *testing.T) {
	m := &Message{
		Type:    TSet,
		Seq:     0xDEADBEEF12345678,
		Key:     "object/42#chunk-3",
		Addr:    "127.0.0.1:6378",
		Args:    []int64{-1, 0, 1 << 40},
		Payload: []byte("hello world"),
	}
	got := roundTrip(t, m)
	if got.Type != m.Type || got.Seq != m.Seq || got.Key != m.Key || got.Addr != m.Addr {
		t.Fatalf("got %+v, want %+v", got, m)
	}
	if !reflect.DeepEqual(got.Args, m.Args) {
		t.Fatalf("args %v != %v", got.Args, m.Args)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestRoundTripEmptyMessage(t *testing.T) {
	got := roundTrip(t, &Message{Type: TPing})
	if got.Type != TPing || got.Key != "" || got.Addr != "" || len(got.Args) != 0 || len(got.Payload) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seq uint64, key, addr string, args []int64, payload []byte) bool {
		if len(key) > MaxKeyLen || len(addr) > MaxKeyLen || len(args) > 255 || len(payload) > MaxPayload {
			return true // out of protocol bounds; covered by limit tests
		}
		m := &Message{Type: TData, Seq: seq, Key: key, Addr: addr, Args: args, Payload: payload}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Seq != seq || got.Key != key || got.Addr != addr {
			return false
		}
		if len(args) != len(got.Args) {
			return false
		}
		for i := range args {
			if args[i] != got.Args[i] {
				return false
			}
		}
		return bytes.Equal(got.Payload, payload) || (len(payload) == 0 && len(got.Payload) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Key: strings.Repeat("k", MaxKeyLen+1)}); err != ErrKeyTooLong {
		t.Fatalf("long key err = %v", err)
	}
	if err := Write(&buf, &Message{Addr: strings.Repeat("a", MaxKeyLen+1)}); err != ErrKeyTooLong {
		t.Fatalf("long addr err = %v", err)
	}
	if err := Write(&buf, &Message{Args: make([]int64, 256)}); err != ErrTooManyArgs {
		t.Fatalf("many args err = %v", err)
	}
	if err := Write(&buf, &Message{Payload: make([]byte, MaxPayload+1)}); err != ErrPayloadTooLarge {
		t.Fatalf("big payload err = %v", err)
	}
}

func TestReadTruncated(t *testing.T) {
	m := &Message{Type: TData, Key: "k", Payload: []byte("0123456789")}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes read successfully", cut)
		}
	}
}

func TestReadRejectsHugePayloadHeader(t *testing.T) {
	// Craft a frame claiming a payload beyond MaxPayload.
	var buf bytes.Buffer
	buf.WriteByte(byte(TData))
	buf.Write(make([]byte, 8)) // seq
	buf.Write([]byte{0, 0})    // key len
	buf.Write([]byte{0, 0})    // addr len
	buf.WriteByte(0)           // nargs
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Read(&buf); err != ErrPayloadTooLarge {
		t.Fatalf("err = %v, want ErrPayloadTooLarge", err)
	}
}

func TestArgHelper(t *testing.T) {
	m := &Message{Args: []int64{7, 8}}
	if m.Arg(0) != 7 || m.Arg(1) != 8 || m.Arg(2) != 0 || m.Arg(-1) != 0 {
		t.Fatal("Arg helper wrong")
	}
}

func TestTypeString(t *testing.T) {
	if TPing.String() != "PING" {
		t.Fatalf("TPing = %s", TPing)
	}
	if TCancel.String() != "CANCEL" {
		t.Fatalf("TCancel = %s", TCancel)
	}
	if Type(200).String() != "Type(200)" {
		t.Fatalf("unknown = %s", Type(200))
	}
}

func TestCancelWireValueStable(t *testing.T) {
	// TCancel was appended after the backup vocabulary; the existing
	// types must keep their wire values (mixed-version peers decode by
	// number).
	if TBackupDone != 17 || TCancel != 18 {
		t.Fatalf("wire values moved: TBackupDone=%d TCancel=%d", TBackupDone, TCancel)
	}
	// Same deal for the membership vocabulary appended after TCancel.
	if TRing != 19 || TJoin != 20 || TWrongOwner != 21 {
		t.Fatalf("wire values moved: TRing=%d TJoin=%d TWrongOwner=%d", TRing, TJoin, TWrongOwner)
	}
	if TRing.String() != "RING" || TJoin.String() != "JOIN" || TWrongOwner.String() != "WRONG_OWNER" {
		t.Fatalf("membership type names wrong: %s %s %s", TRing, TJoin, TWrongOwner)
	}
}

func TestConnSendRecvOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	done := make(chan *Message, 1)
	go func() {
		m, err := cb.Recv()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- m
	}()
	want := &Message{Type: TGet, Seq: 9, Key: "obj"}
	if err := ca.Send(want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil || got.Type != TGet || got.Seq != 9 || got.Key != "obj" {
		t.Fatalf("got %+v", got)
	}
}

func TestConnConcurrentSenders(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	const n = 50
	var wg sync.WaitGroup
	recvDone := make(chan map[uint64]bool, 1)
	go func() {
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			m, err := cb.Recv()
			if err != nil {
				break
			}
			seen[m.Seq] = true
		}
		recvDone <- seen
	}()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seq uint64, sz int) {
			defer wg.Done()
			payload := make([]byte, sz)
			if err := ca.Send(&Message{Type: TData, Seq: seq, Payload: payload}); err != nil {
				t.Error(err)
			}
		}(uint64(i), rng.Intn(10000))
	}
	wg.Wait()
	seen := <-recvDone
	if len(seen) != n {
		t.Fatalf("received %d distinct messages, want %d (frames interleaved?)", len(seen), n)
	}
}

func TestConnCloseIdempotent(t *testing.T) {
	a, _ := net.Pipe()
	c := NewConn(a)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second close returned error:", err)
	}
}

// inprocPair returns the two ends of a connection over the in-process
// transport emulated deployments run on.
func inprocPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	nw := netsim.NewNetwork()
	ln, err := nw.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := nw.Dial("peer")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestForwardRoundTrip sends one frame with every field set over each
// transport the tree uses in-process: a small payload (staged with its
// header) and one on the vectored path, long enough to cross the
// in-process transport's segments.
func TestForwardRoundTrip(t *testing.T) {
	for _, tr := range []struct {
		name string
		pair func(*testing.T) (net.Conn, net.Conn)
	}{
		{"pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }},
		{"inproc", inprocPair},
	} {
		for _, payload := range [][]byte{[]byte("chunk-bytes-0123456789"), bytes.Repeat([]byte("0123456789abcdef!"), 20_000)} {
			t.Run(fmt.Sprintf("%s/%dB", tr.name, len(payload)), func(t *testing.T) {
				a, b := tr.pair(t)
				forwardRoundTrip(t, a, b, payload)
			})
		}
	}
}

func forwardRoundTrip(t *testing.T, a, b net.Conn, payload []byte) {
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	done := make(chan *Message, 1)
	go func() {
		m, err := cb.Recv()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- m
	}()
	args := [4]int64{3, 1 << 20, 10, 12}
	if err := ca.Forward(TData, 77, "obj", "10.0.0.1:99", args[:], payload); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil {
		t.Fatal("no frame received")
	}
	if got.Type != TData || got.Seq != 77 || got.Key != "obj" || got.Addr != "10.0.0.1:99" {
		t.Fatalf("header fields wrong: %+v", got)
	}
	if len(got.Args) != 4 || got.Args[0] != 3 || got.Args[1] != 1<<20 || got.Args[2] != 10 || got.Args[3] != 12 {
		t.Fatalf("args wrong: %v", got.Args)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("payload mismatch")
	}
}

// TestForwardBorrowsPayload pins the ownership rule: Forward copies the
// payload into the socket before returning, so the caller may recycle
// (or scribble over) the buffer immediately afterwards without
// corrupting the frame in flight.
func TestForwardBorrowsPayload(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	payload := bytes.Repeat([]byte{0xAB}, 1024)
	want := append([]byte(nil), payload...)
	done := make(chan *Message, 1)
	go func() {
		m, _ := cb.Recv()
		done <- m
	}()
	if err := ca.Forward(TData, 1, "k", "", nil, payload); err != nil {
		t.Fatal(err)
	}
	for i := range payload { // caller reuses the buffer right away
		payload[i] = 0xCD
	}
	got := <-done
	if got == nil {
		t.Fatal("no frame received")
	}
	if !bytes.Equal(got.Payload, want) {
		t.Fatal("frame observed the caller's post-Forward writes: payload not copied out synchronously")
	}
}

// TestForwardRelayHop runs the canonical zero-rewrap hop — Recv, Forward
// under a rewritten header, Recycle — and checks the relayed frame.
func TestForwardRelayHop(t *testing.T) {
	a1, b1 := net.Pipe() // sender -> relay
	a2, b2 := net.Pipe() // relay -> receiver
	src, relayIn := NewConn(a1), NewConn(b1)
	relayOut, dst := NewConn(a2), NewConn(b2)
	for _, c := range []*Conn{src, relayIn, relayOut, dst} {
		defer c.Close()
	}

	out := make(chan *Message, 1)
	go func() { // receiver
		m, _ := dst.Recv()
		out <- m
	}()
	go func() { // relay hop
		m, err := relayIn.Recv()
		if err != nil {
			return
		}
		relayOut.Forward(m.Type, 42, m.Key, "", m.Args, m.Payload) // rewritten seq
		m.Recycle()
		if m.Payload != nil {
			t.Error("Recycle left the payload reference behind")
		}
	}()
	if err := src.Send(&Message{Type: TData, Seq: 7, Key: "obj#3", Args: []int64{3}, Payload: []byte("body")}); err != nil {
		t.Fatal(err)
	}
	got := <-out
	if got == nil {
		t.Fatal("no frame relayed")
	}
	if got.Type != TData || got.Seq != 42 || got.Key != "obj#3" || got.Arg(0) != 3 {
		t.Fatalf("relayed frame wrong: %+v", got)
	}
	if string(got.Payload) != "body" {
		t.Fatalf("relayed payload = %q", got.Payload)
	}
}

func TestRecycleIdempotent(t *testing.T) {
	m := &Message{Type: TData, Payload: make([]byte, 64)}
	m.Recycle()
	if m.Payload != nil {
		t.Fatal("payload not cleared")
	}
	m.Recycle()                       // safe on an already-recycled message
	(&Message{Type: TPing}).Recycle() // and on one with no payload
}

// TestInternedKeysAcrossFrames checks that repeated keys decode
// correctly when the per-connection intern cache is in play.
func TestInternedKeysAcrossFrames(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	const frames = 32
	got := make(chan string, frames)
	go func() {
		for i := 0; i < frames; i++ {
			m, err := cb.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- m.Key
		}
		close(got)
	}()
	for i := 0; i < frames; i++ {
		key := "repeated-key"
		if i%4 == 3 {
			key = "other-key"
		}
		if err := ca.Forward(TGet, uint64(i), key, "", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for k := range got {
		want := "repeated-key"
		if i%4 == 3 {
			want = "other-key"
		}
		if k != want {
			t.Fatalf("frame %d key = %q, want %q", i, k, want)
		}
		i++
	}
	if i != frames {
		t.Fatalf("received %d frames, want %d", i, frames)
	}
}

func BenchmarkWriteRead1MB(b *testing.B) {
	m := &Message{Type: TData, Key: "bench", Payload: make([]byte, 1<<20)}
	var buf bytes.Buffer
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// countedConn wraps one end of a pipe and counts Write calls — each is
// what a real TCP conn would issue as one syscall, so the counter
// observes flush coalescing directly.
type countedConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// newCountedPair returns a Conn over a counted pipe end plus a peer
// Conn, with a goroutine consuming peer frames into got.
func newCountedPair(t *testing.T, frames int) (*Conn, *countedConn, chan *Message) {
	t.Helper()
	a, b := net.Pipe()
	cc := &countedConn{Conn: a}
	ca, cb := NewConn(cc), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	got := make(chan *Message, frames)
	go func() {
		defer close(got)
		for i := 0; i < frames; i++ {
			m, err := cb.Recv()
			if err != nil {
				return
			}
			got <- m
		}
	}()
	return ca, cc, got
}

// TestPinCoalescesFlushes pins the loopy-writer behaviour: a Pin/Flush
// burst of small frames reaches the socket in ONE write, while the same
// frames sent without a Pin window cost one write each.
func TestPinCoalescesFlushes(t *testing.T) {
	const frames = 12
	ca, cc, got := newCountedPair(t, frames)

	ca.Pin()
	for i := 0; i < frames; i++ {
		if err := ca.Forward(TSet, uint64(i), "obj", "", nil, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if n := cc.writes.Load(); n != 0 {
		t.Fatalf("pinned burst flushed early: %d writes before Flush", n)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		m := <-got
		if m == nil || m.Seq != uint64(i) {
			t.Fatalf("frame %d missing or out of order: %+v", i, m)
		}
		m.Recycle()
	}
	if n := cc.writes.Load(); n != 1 {
		t.Fatalf("12-frame pinned burst took %d writes, want 1", n)
	}
	if st := ca.Stats(); st.FramesOut != frames || st.Flushes != 1 {
		t.Fatalf("stats = %+v, want %d frames / 1 flush", st, frames)
	}
}

// TestUnpinnedForwardFlushes pins the other side of the policy: without
// a Pin window and without sender concurrency, every Forward reaches
// the wire before returning.
func TestUnpinnedForwardFlushes(t *testing.T) {
	const frames = 3
	ca, cc, got := newCountedPair(t, frames)
	for i := 0; i < frames; i++ {
		if err := ca.Forward(TGet, uint64(i), "k", "", nil, nil); err != nil {
			t.Fatal(err)
		}
		if n := cc.writes.Load(); n != int64(i+1) {
			t.Fatalf("after %d unpinned sends: %d writes", i+1, n)
		}
	}
	for i := 0; i < frames; i++ {
		(<-got).Recycle()
	}
}

// TestExtraFlushHarmless: an unpaired Flush (forced boundary) must not
// poison the pending-senders count for later sends.
func TestExtraFlushHarmless(t *testing.T) {
	ca, cc, got := newCountedPair(t, 2)
	if err := ca.Flush(); err != nil { // nothing staged: no write
		t.Fatal(err)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load(); n != 0 {
		t.Fatalf("empty Flush wrote: %d", n)
	}
	for i := 0; i < 2; i++ {
		if err := ca.Forward(TGet, uint64(i), "k", "", nil, nil); err != nil {
			t.Fatal(err)
		}
		(<-got).Recycle()
	}
	if n := cc.writes.Load(); n != 2 {
		t.Fatalf("sends after unpaired Flushes: %d writes, want 2", n)
	}
}

// TestVectoredWriteRoundTrip sends a payload over the vectored
// (writev-style) path and checks integrity plus the borrow contract.
func TestVectoredWriteRoundTrip(t *testing.T) {
	ca, _, got := newCountedPair(t, 1)
	payload := bytes.Repeat([]byte{0x5A}, VectoredMin+123)
	want := append([]byte(nil), payload...)
	if err := ca.Forward(TData, 9, "big", "", []int64{1}, payload); err != nil {
		t.Fatal(err)
	}
	for i := range payload { // caller reuses the borrowed buffer at once
		payload[i] = 0xFF
	}
	m := <-got
	if m == nil {
		t.Fatal("no frame")
	}
	if m.Seq != 9 || m.Key != "big" || m.Arg(0) != 1 || !bytes.Equal(m.Payload, want) {
		t.Fatalf("vectored frame corrupted: seq=%d key=%q len=%d", m.Seq, m.Key, len(m.Payload))
	}
	m.Recycle()
	if st := ca.Stats(); st.Vectored != 1 {
		t.Fatalf("stats = %+v, want 1 vectored write", st)
	}
}

// TestPinnedBurstWithLargePayloads: small frames staged before a large
// payload ride the same vectored write; ordering is preserved.
func TestPinnedBurstWithLargePayloads(t *testing.T) {
	ca, cc, got := newCountedPair(t, 3)
	big := bytes.Repeat([]byte{7}, VectoredMin)
	ca.Pin()
	ca.Forward(TAck, 1, "a", "", nil, nil)
	ca.Forward(TData, 2, "b", "", nil, big)
	ca.Forward(TAck, 3, "c", "", nil, nil)
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 3} {
		m := <-got
		if m == nil || m.Seq != want {
			t.Fatalf("frame %d: %+v", i, m)
		}
		m.Recycle()
	}
	// Pipe fallback: the vectored write costs 2 Writes (staged + payload),
	// the trailing small frame one more flush — but never one per frame.
	if n := cc.writes.Load(); n > 3 {
		t.Fatalf("mixed burst took %d writes", n)
	}
}

// TestPumpDrainsUndelivered: a consumer that walks away (and closes the
// conn, as all consumers do) must not strand messages in the pump
// channel — the pump drains and recycles them, even when it was blocked
// mid-delivery on a full channel.
func TestPumpDrainsUndelivered(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()

	const frames = 200 // > pump buffer, so the pump blocks mid-delivery
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := ca.Forward(TData, uint64(i), "k", "", nil, make([]byte, 64)); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	ch := Pump(cb)
	// Consumer takes a couple of messages, then leaves and closes.
	for i := 0; i < 2; i++ {
		m := <-ch
		if m == nil {
			t.Fatal("early close")
		}
		m.Recycle()
	}
	cb.Close()
	<-sendErr // sender unblocks with an error once the pipe dies

	// The pump must drain the stranded tail: the channel ends closed AND
	// empty within the timeout (pre-fix it stays full forever).
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-ch:
			if !ok {
				return // drained and closed: fixed behaviour
			}
			m.Recycle() // racing the pump's own drain is fair game
		case <-deadline:
			t.Fatalf("pump never drained: %d messages still buffered", len(ch))
		}
	}
}

// TestInternKeepsHotKeys: reaching internCap must not evict keys that
// are live this window — the hot key keeps its interned identity across
// the sweep while the cold tail is dropped.
func TestInternKeepsHotKeys(t *testing.T) {
	var it internTable
	hot := []byte("chunk/hot#0")
	first := it.lookup(hot)
	var cold [64]byte
	for i := 0; i < internCap*3; i++ {
		n := copy(cold[:], "cold-")
		n += copy(cold[n:], strconv.Itoa(i))
		it.lookup(cold[:n])
		if i%8 == 0 {
			it.lookup(hot) // stays hot through every window
		}
	}
	again := it.lookup(hot)
	if unsafe.StringData(first) != unsafe.StringData(again) {
		t.Fatal("hot key was evicted and re-interned by a sweep")
	}
	if len(it.m) > internCap {
		t.Fatalf("intern table unbounded: %d entries", len(it.m))
	}
}

// TestInternAllHotFallsBack: when every key is touched in the window,
// the sweep must still bound the table (wholesale clear), not grow
// forever.
func TestInternAllHotFallsBack(t *testing.T) {
	var it internTable
	var buf [64]byte
	for round := 0; round < 3; round++ {
		for i := 0; i < internCap+100; i++ {
			n := copy(buf[:], "k-")
			n += copy(buf[n:], strconv.Itoa(i))
			it.lookup(buf[:n])
			it.lookup(buf[:n]) // touch: everything is "hot"
		}
	}
	if len(it.m) > internCap+1 {
		t.Fatalf("all-hot table unbounded: %d entries", len(it.m))
	}
}
