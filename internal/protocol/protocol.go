// Package protocol defines the length-framed binary wire protocol spoken
// between the InfiniCache client library, the proxy, and the Lambda
// function runtime.
//
// The original system used a Redis-flavoured protocol; this implementation
// uses a compact binary framing with the same message vocabulary as the
// paper's Figures 6, 7 and 10: preflight PING/PONG, chunk GET/SET/DATA,
// BYE on billed-duration expiry, and the backup handshake
// (INITBACKUP/BACKUPCMD/HELLO/META).
//
// # Flush policy (syscall-light writes)
//
// Per-chunk message overhead multiplies by d+p on every object, so the
// write path coalesces syscalls instead of flushing per frame:
//
//   - Send and Forward stage the frame in the connection's write buffer
//     and flush only when they are the last writer out — a pending-senders
//     count (incremented before the write lock is taken) lets a burst of
//     concurrent senders ride one flush.
//   - A single goroutine writing a known burst (a pipelined PUT's d+p
//     SETs, an MGet fan-out, the node dispatcher's window drain) brackets
//     it with Pin and Flush: Pin holds the pending count up so the
//     interior sends stage without flushing, and the closing Flush puts
//     the whole burst on the wire at once. Pin/Flush pairs nest. Every
//     Flush (and Unpin) must close a matching Pin — an unpaired Flush
//     racing a concurrent sender can consume that sender's pending slot
//     and permanently disable coalescing on the connection.
//   - Payloads of VectoredMin bytes or more skip the staging copy
//     entirely: the buffered frames, the new header, and the payload go
//     to the kernel as one vectored write (writev on TCP).
//
// The only hard rule: every Pin must eventually be followed by a Flush
// on the same connection, before blocking on a response to the staged
// frames — an unflushed request frame can deadlock a request/response
// exchange. Callers that need a frame on the wire immediately (preflight
// PING, CANCEL, a lock-step reply) either send outside any Pin window
// (Forward self-flushes) or call Flush explicitly.
//
// # Payload buffer ownership
//
// Payload buffers flow through the pool in internal/bufpool, and exactly
// one party owns a buffer at any moment:
//
//   - Read/Recv draw the payload from bufpool and pass ownership to the
//     caller with the returned Message.
//   - Send and Forward only *borrow* the payload: it is fully consumed
//     before they return — copied into the write buffer, or (vectored
//     path) handed to the kernel by reference for the duration of the
//     call only — and no reference is retained, so the caller still owns
//     the buffer when they return and may recycle or reuse it at once.
//   - The hop that consumes a frame — forwards it, stores it, or drops
//     it — recycles the payload with Message.Recycle (or takes ownership
//     for as long as it retains the bytes, as the Lambda chunk store
//     does). Letting a buffer die to the garbage collector is safe but
//     wastes the pool.
//
// A relay hop therefore runs: m := Recv() → Forward(..., m.Payload) →
// m.Recycle(), with no payload copy and no second Message allocation.
package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"infinicache/internal/bufpool"
)

// Type enumerates message types.
type Type uint8

// Message types. The comments note the paper step that uses each.
const (
	TInvalid Type = iota

	// Connection management.
	TJoinLambda // Lambda runtime -> proxy: first message after dialing (carries node ID)
	TJoinClient // client -> proxy: identifies a client connection
	TPing       // proxy -> Lambda: preflight validation (§3.3)
	TPong       // Lambda -> proxy: preflight ack / post-invoke hello (steps 3, 8)
	TBye        // Lambda -> proxy: billed-duration timer expiring (step 13)

	// Data path.
	TGet  // request a chunk (proxy -> Lambda) or an object (client -> proxy)
	TSet  // store a chunk (proxy -> Lambda) or an object chunk (client -> proxy)
	TDel  // invalidate an object (client -> proxy) or chunk (proxy -> Lambda)
	TData // chunk payload response
	TMiss // requested key not present
	TAck  // generic success
	TErr  // error with text payload

	// Backup protocol (Figure 10).
	TInitBackup // step 1: Lambda(source) -> proxy
	TBackupCmd  // step 4: proxy -> Lambda(source), Addr = relay address
	THello      // steps 8/11: destination -> source via relay, and dest -> proxy (step 9)
	TMeta       // source -> destination: chunk keys MRU->LRU (step 11 reply)
	TBackupDone // destination -> proxy: migration complete

	// TCancel abandons an in-flight request: client -> proxy, Seq names
	// the request being cancelled (each chunk SET of a pipelined PUT has
	// its own Seq). Best effort — no reply is sent; the proxy releases
	// the request's window slots and suppresses its responses. Appended
	// after the backup types so existing wire values stay stable.
	TCancel

	// Membership protocol (versioned ring). Appended after TCancel so
	// existing wire values stay stable.

	// TRing fetches the cluster ring: client -> proxy requests it, the
	// proxy replies with another TRing whose Args[0] is the epoch
	// version and whose payload is the encoded member list.
	TRing
	// TJoin is a migration worker's done marker, sent on its client
	// connection to a next-epoch member: Key = source proxy, Args =
	// [epoch version, 1] — "everything I owed you for this epoch has been
	// handed off". It is acked with TAck on the same Seq, echoing the key.
	TJoin
	// TWrongOwner redirects a request routed by a stale ring: Addr is
	// the owning proxy under the responder's epoch, Args[0] the epoch
	// version. Args[1] == 1 flags a fallback redirect — the responder
	// owns the key but has not yet received it from the previous owner
	// (migration in flight); the client should retry at Addr with the
	// authoritative flag instead of refreshing its ring.
	TWrongOwner
)

// Transient-error wire contract. A TErr whose Args[0] is
// TransientFlag tells the client the request failed for a reason worth
// retrying; Args[1] (when present) classifies it so the client can
// pace the retry instead of burning its budget blind.
const (
	// TransientFlag in Args[0] marks a retryable TErr.
	TransientFlag = 1
	// TransientBusyWrite (Args[1]): the object is mid-overwrite — a new
	// PUT generation has not fully committed. Resolves when the write
	// window closes; the client should back off before retrying.
	TransientBusyWrite = 1
	// TransientNodeFailure (Args[1]): chunk fan-out failed on node
	// timeouts or a backup swap. Usually resolves immediately (the
	// dispatcher redials); the client retries at once.
	TransientNodeFailure = 2
)

var typeNames = map[Type]string{
	TInvalid: "INVALID", TJoinLambda: "JOIN_LAMBDA", TJoinClient: "JOIN_CLIENT",
	TPing: "PING", TPong: "PONG", TBye: "BYE", TGet: "GET", TSet: "SET",
	TDel: "DEL", TData: "DATA", TMiss: "MISS", TAck: "ACK", TErr: "ERR",
	TInitBackup: "INIT_BACKUP", TBackupCmd: "BACKUP_CMD", THello: "HELLO",
	TMeta: "META", TBackupDone: "BACKUP_DONE", TCancel: "CANCEL",
	TRing: "RING", TJoin: "JOIN", TWrongOwner: "WRONG_OWNER",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MaxPayload bounds a single frame's payload. InfiniCache chunks keep
// frames small, but the unsharded ElastiCache baseline ships whole
// objects in one frame, so the cap accommodates the largest benchmark
// objects (256 MiB).
const MaxPayload = 256 << 20

// MaxKeyLen bounds the key and addr fields.
const MaxKeyLen = 4096

// maxHeaderSize is the largest possible wire header: every frame field
// before the payload bytes, at the protocol's limits. Both the write
// staging buffer and the read buffer must hold at least this much so a
// header is always stageable (write side) and peekable (read side) as
// one contiguous region.
const maxHeaderSize = 1 + 8 + 2 + MaxKeyLen + 2 + MaxKeyLen + 1 + 255*8 + 4

// bufSize is the per-direction buffer on a Conn.
const bufSize = 64 << 10

// VectoredMin is the payload size at which Send/Forward stop copying
// the payload into the staging buffer and instead issue one vectored
// write of staged-bytes+payload: a large DATA frame is header plus
// payload in a single syscall with zero staging copy.
const VectoredMin = 16 << 10

// Message is one protocol frame.
//
// Wire layout (big endian):
//
//	uint8  type
//	uint64 seq
//	uint16 len(key)  | key bytes
//	uint16 len(addr) | addr bytes
//	uint8  nargs     | nargs x int64
//	uint32 len(payload) | payload bytes
type Message struct {
	Type    Type
	Seq     uint64  // request/response correlation
	Key     string  // object or chunk key
	Addr    string  // network address (relay/proxy) for backup messages
	Args    []int64 // small integers: sizes, chunk ids, flags
	Payload []byte

	// argsArr inlines up to 12 decoded args so a steady-state Recv does
	// not allocate a slice per frame; Args points into it. (The widest
	// hot-path frame is a streamed object's head SET: 8 routing args,
	// the chunk checksum, and the two stream-geometry args.) Copy
	// Messages by pointer — a shallow copy's Args would alias the
	// original.
	argsArr [12]int64
}

// Arg returns Args[i], or 0 when absent.
func (m *Message) Arg(i int) int64 {
	if i < 0 || i >= len(m.Args) {
		return 0
	}
	return m.Args[i]
}

// Recycle returns the message's payload buffer to the pool and clears
// the reference. The hop that consumes a frame — after forwarding it,
// copying the bytes out, or deciding to drop it — calls Recycle; the
// payload must not be referenced afterwards. Safe on messages without a
// payload.
func (m *Message) Recycle() {
	if m.Payload != nil {
		bufpool.Put(m.Payload)
		m.Payload = nil
	}
}

// msgPool recycles Message structs through Recv/Free so a steady-state
// request allocates no frame struct per message. Recv draws from it;
// Free returns to it.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// newMessage draws a reset Message from the frame pool.
func newMessage() *Message {
	m := msgPool.Get().(*Message)
	*m = Message{}
	return m
}

// Free recycles the payload (if any) and then the Message struct
// itself, making both available to future Recvs. Call it instead of
// Recycle at sites that fully consume a frame and drop the Message —
// the message must not be referenced at all afterwards. A frame whose
// payload was handed off must have Payload nilled by the new owner (or
// set m.Payload = nil) before Free, exactly as with Recycle.
func (m *Message) Free() {
	m.Recycle()
	*m = Message{}
	msgPool.Put(m)
}

// Errors.
var (
	ErrPayloadTooLarge = errors.New("protocol: payload exceeds MaxPayload")
	ErrKeyTooLong      = errors.New("protocol: key or addr exceeds MaxKeyLen")
	ErrTooManyArgs     = errors.New("protocol: more than 255 args")
)

// checkLimits validates the frame fields, in the same precedence order
// the original encoder used (payload, then key/addr, then args).
func checkLimits(key, addr string, nargs, payloadLen int) error {
	if payloadLen > MaxPayload {
		return ErrPayloadTooLarge
	}
	if len(key) > MaxKeyLen || len(addr) > MaxKeyLen {
		return ErrKeyTooLong
	}
	if nargs > 255 {
		return ErrTooManyArgs
	}
	return nil
}

// appendHeader appends the full wire header — everything before the
// payload bytes, including the payload-length word — to dst. The caller
// has already validated the field limits.
func appendHeader(dst []byte, t Type, seq uint64, key, addr string, args []int64, payloadLen int) []byte {
	dst = append(dst, byte(t))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(addr)))
	dst = append(dst, addr...)
	dst = append(dst, byte(len(args)))
	for _, a := range args {
		dst = binary.BigEndian.AppendUint64(dst, uint64(a))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
	return dst
}

// headerSize returns the exact encoded header size for the fields.
func headerSize(key, addr string, nargs int) int {
	return 1 + 8 + 2 + len(key) + 2 + len(addr) + 1 + 8*nargs + 4
}

// Write encodes m to w. This is the plain io.Writer path (tests, tools);
// connections stage frames in their own write buffer instead.
func Write(w io.Writer, m *Message) error {
	if err := checkLimits(m.Key, m.Addr, len(m.Args), len(m.Payload)); err != nil {
		return err
	}
	scratch := bufpool.Get(headerSize(m.Key, m.Addr, len(m.Args)))
	hdr := appendHeader(scratch[:0], m.Type, m.Seq, m.Key, m.Addr, m.Args, len(m.Payload))
	_, err := w.Write(hdr)
	if err == nil && len(m.Payload) > 0 {
		_, err = w.Write(m.Payload)
	}
	bufpool.Put(scratch)
	return err
}

// Read decodes one message from r with the reference per-field decoder.
// The payload buffer is drawn from bufpool; ownership passes to the
// caller, who may hand it back with bufpool.Put once the message is
// fully consumed (letting it simply be garbage collected is also fine).
//
// Conn.Recv uses the single-read fast path instead; TestDecoderParity
// and FuzzReadMessage pin the two byte- and error-compatible.
func Read(r io.Reader) (*Message, error) {
	return readMessageSlow(r)
}

// readMessageSlow decodes one message with one small read per field —
// the original decoder, kept as the arbitrary-io.Reader path and as the
// behavioural reference for the buffered fast path.
func readMessageSlow(r io.Reader) (*Message, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return nil, err
	}
	m := newMessage()
	m.Type = Type(b[0])
	if _, err := io.ReadFull(r, b[:8]); err != nil {
		return nil, err
	}
	m.Seq = binary.BigEndian.Uint64(b[:8])

	readStr := func() (string, error) {
		if _, err := io.ReadFull(r, b[:2]); err != nil {
			return "", err
		}
		n := binary.BigEndian.Uint16(b[:2])
		if n == 0 {
			return "", nil
		}
		if int(n) > MaxKeyLen {
			return "", ErrKeyTooLong
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var err error
	if m.Key, err = readStr(); err != nil {
		return nil, err
	}
	if m.Addr, err = readStr(); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return nil, err
	}
	nargs := int(b[0])
	if nargs > 0 {
		if nargs <= len(m.argsArr) {
			m.Args = m.argsArr[:nargs]
		} else {
			m.Args = make([]int64, nargs)
		}
		for i := 0; i < nargs; i++ {
			if _, err := io.ReadFull(r, b[:8]); err != nil {
				return nil, err
			}
			m.Args[i] = int64(binary.BigEndian.Uint64(b[:8]))
		}
	}
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return nil, err
	}
	plen := binary.BigEndian.Uint32(b[:4])
	if plen > MaxPayload {
		return nil, ErrPayloadTooLarge
	}
	if plen > 0 {
		m.Payload = bufpool.Get(int(plen))
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			bufpool.Put(m.Payload)
			return nil, err
		}
	}
	return m, nil
}

// peekErr maps a failed header Peek onto the error the per-field
// reference decoder returns for the same truncated input: io.EOF when
// the cut falls exactly on a field-read boundary (a ReadFull that got
// zero bytes), io.ErrUnexpectedEOF when it falls inside a field. reads
// lists the reference decoder's per-field read sizes up to (at least)
// the point of failure; got is what Peek could deliver.
func peekErr(got []byte, err error, reads ...int) error {
	if err != io.EOF {
		return err
	}
	avail, off := len(got), 0
	for _, n := range reads {
		if n == 0 {
			continue // zero-length fields are never read
		}
		if avail == off {
			return io.EOF
		}
		if avail < off+n {
			return io.ErrUnexpectedEOF
		}
		off += n
	}
	return io.ErrUnexpectedEOF
}

// readMessageFast decodes one frame off a buffered reader in a single
// logical read: the whole variable-length header is obtained by peeking
// into the reader's buffer (a handful of Peek calls, no copies, no
// per-field ReadFull round trips), decoded in place, and consumed with
// one Discard; only the payload is read into its own pooled buffer.
// The reader's buffer must hold maxHeaderSize bytes. Byte layout and
// error behaviour are pinned to readMessageSlow by TestDecoderParity
// and FuzzReadMessage.
func readMessageFast(r *bufio.Reader, it *internTable) (*Message, error) {
	const fixed = 1 + 8 + 2 // type, seq, len(key)
	hdr, err := r.Peek(fixed)
	if err != nil {
		return nil, peekErr(hdr, err, 1, 8, 2)
	}
	m := newMessage()
	m.Type = Type(hdr[0])
	m.Seq = binary.BigEndian.Uint64(hdr[1:9])
	klen := int(binary.BigEndian.Uint16(hdr[9:11]))
	if klen > MaxKeyLen {
		return nil, ErrKeyTooLong
	}
	keyEnd := fixed + klen
	if hdr, err = r.Peek(keyEnd + 2); err != nil {
		return nil, peekErr(hdr, err, 1, 8, 2, klen, 2)
	}
	alen := int(binary.BigEndian.Uint16(hdr[keyEnd : keyEnd+2]))
	if alen > MaxKeyLen {
		return nil, ErrKeyTooLong
	}
	addrEnd := keyEnd + 2 + alen
	if hdr, err = r.Peek(addrEnd + 1); err != nil {
		return nil, peekErr(hdr, err, 1, 8, 2, klen, 2, alen, 1)
	}
	nargs := int(hdr[addrEnd])
	total := addrEnd + 1 + 8*nargs + 4
	if hdr, err = r.Peek(total); err != nil {
		reads := make([]int, 0, 8+nargs)
		reads = append(reads, 1, 8, 2, klen, 2, alen, 1)
		for i := 0; i < nargs; i++ {
			reads = append(reads, 8)
		}
		reads = append(reads, 4)
		return nil, peekErr(hdr, err, reads...)
	}
	// Everything below slices hdr, which aliases the reader's internal
	// buffer — all copies out must happen before the Discard.
	if it != nil {
		m.Key = it.lookup(hdr[fixed:keyEnd])
		m.Addr = it.lookup(hdr[keyEnd+2 : addrEnd])
	} else {
		m.Key = string(hdr[fixed:keyEnd])
		m.Addr = string(hdr[keyEnd+2 : addrEnd])
	}
	if nargs > 0 {
		if nargs <= len(m.argsArr) {
			m.Args = m.argsArr[:nargs]
		} else {
			m.Args = make([]int64, nargs)
		}
		for i := range m.Args {
			m.Args[i] = int64(binary.BigEndian.Uint64(hdr[addrEnd+1+8*i:]))
		}
	}
	plen := binary.BigEndian.Uint32(hdr[total-4 : total])
	if plen > MaxPayload {
		return nil, ErrPayloadTooLarge
	}
	if _, err := r.Discard(total); err != nil {
		return nil, err
	}
	if plen > 0 {
		m.Payload = bufpool.Get(int(plen))
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			bufpool.Put(m.Payload)
			m.Payload = nil
			return nil, err
		}
	}
	return m, nil
}

// internCap bounds a connection's key-intern cache.
const internCap = 4096

// internTable deduplicates key/addr strings across a connection's
// frames — chunk keys repeat for the lifetime of an object, so
// steady-state reads hit the cache and allocate no string at all.
//
// Eviction is second-chance by window: every entry records the window
// generation it was last looked up in. When the table hits internCap, a
// sweep drops only the entries not touched in the current window and
// opens a new one — a connection's hot chunk keys survive the reset
// while the cold tail is evicted (the previous wholesale clear() threw
// the hot keys out with the cold ones).
type internTable struct {
	m   map[string]internEntry
	gen uint8 // current touch window
}

type internEntry struct {
	s   string
	gen uint8
}

// lookup returns the interned string for b, inserting (and sweeping, at
// capacity) as needed. The lookup itself is allocation-free on a hit.
func (t *internTable) lookup(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t.m == nil {
		t.m = make(map[string]internEntry)
	}
	if e, ok := t.m[string(b)]; ok { // alloc-free map probe
		if e.gen != t.gen {
			e.gen = t.gen // second-chance bit: touched this window
			t.m[e.s] = e
		}
		return e.s
	}
	if len(t.m) >= internCap {
		t.sweep()
	}
	// New entries start untouched (gen-1): only a reuse within the
	// current window marks a key hot enough to survive the next sweep.
	s := string(b)
	t.m[s] = internEntry{s: s, gen: t.gen - 1}
	return s
}

// sweep drops every entry not touched in the current window, then opens
// a new window (survivors must be touched again to survive the next
// sweep). If everything was hot the table is cleared outright — a
// working set that large means keys are not repeating anyway.
func (t *internTable) sweep() {
	for k, e := range t.m {
		if e.gen != t.gen {
			delete(t.m, k)
		}
	}
	t.gen++
	if len(t.m) >= internCap {
		clear(t.m)
	}
}

// ConnStats snapshots a connection's wire-plane counters.
type ConnStats struct {
	FramesOut uint64 // frames staged for the socket
	FramesIn  uint64 // frames decoded off the socket
	Flushes   uint64 // socket write calls (buffer flushes + vectored writes)
	Vectored  uint64 // flushes that shipped a large payload via one vectored write
}

// Add accumulates o into s.
func (s *ConnStats) Add(o ConnStats) {
	s.FramesOut += o.FramesOut
	s.FramesIn += o.FramesIn
	s.Flushes += o.Flushes
	s.Vectored += o.Vectored
}

// Conn is a message-oriented wrapper over a net.Conn with a staged,
// mutex-guarded writer (many goroutines may send) and a single-reader
// contract for Recv. See the package comment for the flush policy.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader
	// rintern dedupes decoded key/addr strings across frames
	// (single-reader contract, so no lock).
	rintern internTable

	// wpend counts writers that have committed to staging a frame plus
	// open Pin windows; the writer that decrements it to zero flushes.
	// It is incremented before wmu is taken so a sender queued on the
	// lock keeps the earlier writer from flushing needlessly.
	wpend   atomic.Int32
	wmu     sync.Mutex
	wbuf    []byte      // staged, unflushed frame bytes (headers + small payloads)
	wvec    net.Buffers // scratch for vectored writes
	wvecArr [2][]byte
	pvecArr [][]byte // reusable iovec backing for SendPrebuilt

	framesOut atomic.Uint64
	framesIn  atomic.Uint64
	flushes   atomic.Uint64
	vectored  atomic.Uint64

	dead      atomic.Bool
	closeOnce sync.Once
	closeErr  error
	closedCh  chan struct{} // closed by Close; unblocks a stuck Pump send
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		raw:      c,
		r:        bufio.NewReaderSize(c, bufSize),
		wbuf:     make([]byte, 0, bufSize),
		closedCh: make(chan struct{}),
	}
}

// Stats snapshots the connection's wire counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		FramesOut: c.framesOut.Load(),
		FramesIn:  c.framesIn.Load(),
		Flushes:   c.flushes.Load(),
		Vectored:  c.vectored.Load(),
	}
}

// Send stages one message and flushes if last writer out. Safe for
// concurrent use. The payload is only borrowed; the caller still owns
// it when Send returns.
func (c *Conn) Send(m *Message) error {
	return c.Forward(m.Type, m.Seq, m.Key, m.Addr, m.Args, m.Payload)
}

// Forward stages one frame assembled from explicit header fields and an
// existing payload buffer — the zero-rewrap relay path: a hop that
// received a DATA/SET frame re-sends its pooled payload under a
// rewritten header with no intermediate Message allocation and no
// payload copy. Safe for concurrent use; the payload is only borrowed
// (fully consumed before Forward returns), so the caller keeps
// ownership and typically recycles it right after.
//
// The frame reaches the wire when the last concurrent writer (or the
// enclosing Pin window's Flush) flushes; with no concurrency and no Pin
// open, Forward flushes itself before returning.
func (c *Conn) Forward(t Type, seq uint64, key, addr string, args []int64, payload []byte) error {
	c.wpend.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.stageFrame(t, seq, key, addr, args, payload)
	last := c.wpend.Add(-1) <= 0
	if err != nil {
		c.dead.Store(true)
		return err
	}
	if !last {
		return nil // a pending writer or an open Pin window flushes
	}
	return c.flushLocked()
}

// Pin opens a write-burst window: until the matching Flush, sends on
// this connection stage their frames without flushing, so a pipelined
// burst reaches the kernel in one write. Pin/Flush pairs nest. The
// caller must call Flush before blocking on any response to the burst.
func (c *Conn) Pin() { c.wpend.Add(1) }

// Unpin closes a Pin window without forcing a flush: staged frames
// stay held until the next boundary — a later unpinned send's
// self-flush, an explicit Flush, or a capacity flush. Only safe when
// the held frames cannot be what the peer is blocked on (the proxy
// session holds intermediate chunk acks this way: the client only
// proceeds on an operation's final frame, which always Flushes).
func (c *Conn) Unpin() { c.wpend.Add(-1) }

// Flush closes a Pin window: if no other writer or window is still
// pending, every staged frame goes to the socket. Safe for concurrent
// use. Each Flush must close a matching Pin — calling it without one
// is a programming error (racing a concurrent sender, an unpaired
// Flush could consume that sender's pending slot and leave the count
// skewed); the n<0 restore below only contains the uncontended case.
func (c *Conn) Flush() error {
	if n := c.wpend.Add(-1); n > 0 {
		return nil // an open window or mid-send writer will flush
	} else if n < 0 {
		c.wpend.Add(1) // unpaired misuse: repair the count
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// stageFrame validates and appends one frame to the write buffer,
// flushing as needed for space. Payloads of VectoredMin bytes or more
// are not staged: the buffer and the payload are written together as
// one vectored write. Called with wmu held.
func (c *Conn) stageFrame(t Type, seq uint64, key, addr string, args []int64, payload []byte) error {
	if err := checkLimits(key, addr, len(args), len(payload)); err != nil {
		return err
	}
	c.framesOut.Add(1)
	need := headerSize(key, addr, len(args))
	small := len(payload) < VectoredMin
	if small {
		need += len(payload)
	}
	if len(c.wbuf)+need > cap(c.wbuf) {
		if err := c.flushLocked(); err != nil {
			return err
		}
	}
	c.wbuf = appendHeader(c.wbuf, t, seq, key, addr, args, len(payload))
	if small {
		c.wbuf = append(c.wbuf, payload...)
		return nil
	}
	return c.writeVectored(payload)
}

// flushLocked writes the staged bytes to the socket. Called with wmu
// held.
func (c *Conn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	c.flushes.Add(1)
	_, err := c.raw.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	if err != nil {
		c.dead.Store(true)
	}
	return err
}

// writeVectored ships the staged bytes (coalesced frames plus the
// current header) and a large payload to the kernel as one vectored
// write — writev on TCP — with no staging copy. The payload is only
// borrowed; the write completes before return and no reference is
// kept. Called with wmu held.
func (c *Conn) writeVectored(payload []byte) error {
	c.flushes.Add(1)
	c.vectored.Add(1)
	c.wvecArr[0], c.wvecArr[1] = c.wbuf, payload
	c.wvec = net.Buffers(c.wvecArr[:])
	_, err := c.wvec.WriteTo(c.raw)
	c.wvecArr[0], c.wvecArr[1] = nil, nil // payload is only borrowed
	c.wbuf = c.wbuf[:0]
	if err != nil {
		c.dead.Store(true)
	}
	return err
}

// Recv reads the next message. Only one goroutine may call Recv.
func (c *Conn) Recv() (*Message, error) {
	m, err := readMessageFast(c.r, &c.rintern)
	if err != nil {
		c.dead.Store(true)
		return nil, err
	}
	c.framesIn.Add(1)
	return m, nil
}

// Buffered reports how many inbound bytes are already waiting in the
// read buffer. A relay-style hop uses it to keep a Pin window open
// while more input is on hand: input already buffered means the peer
// has those bytes in flight, so a Recv cannot block indefinitely.
// Single-reader contract, like Recv.
func (c *Conn) Buffered() int { return c.r.Buffered() }

// Dead reports whether the connection has been closed or has failed; a
// dead connection must be redialed.
func (c *Conn) Dead() bool { return c.dead.Load() }

// Close closes the underlying connection; it is idempotent.
func (c *Conn) Close() error {
	c.dead.Store(true)
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.closeErr = c.raw.Close()
	})
	return c.closeErr
}

// Done returns a channel closed when the connection is closed — for
// auxiliary reader goroutines that must not block forever delivering
// to a consumer that already left.
func (c *Conn) Done() <-chan struct{} { return c.closedCh }

// Pump starts a reader goroutine that delivers inbound messages on the
// returned channel; the channel closes when the connection errors or
// closes. It takes over the single-reader slot of c.
//
// A consumer that stops receiving before the connection dies must still
// Close the connection: Close unblocks a pump stuck delivering into a
// full channel, and when the pump goroutine returns it drains whatever
// the consumer never took delivery of, recycling the pooled payloads
// that would otherwise be stranded in the channel buffer. (A consumer
// still draining the closed channel races that cleanup fairly — each
// message is delivered exactly once either way.)
func Pump(c *Conn) <-chan *Message {
	ch := make(chan *Message, 128)
	go func() {
		defer func() {
			close(ch)
			for {
				m, ok := <-ch
				if !ok {
					return
				}
				m.Recycle()
			}
		}()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			select {
			case ch <- m:
			case <-c.closedCh:
				// The consumer left and closed the connection while the
				// channel was full; this frame ends its journey here.
				m.Recycle()
				return
			}
		}
	}()
	return ch
}
