package netsim

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"infinicache/internal/vclock"
)

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0)
	if d := b.Reserve(time.Now(), 1<<30); d != 0 {
		t.Fatalf("unlimited bucket delayed %v", d)
	}
}

func TestBucketRate(t *testing.T) {
	b := NewBucket(1e6) // 1 MB/s
	now := time.Now()
	d := b.Reserve(now, 500_000)
	if d != 500*time.Millisecond {
		t.Fatalf("delay = %v, want 500ms", d)
	}
	// Second reservation queues behind the first.
	d2 := b.Reserve(now, 500_000)
	if d2 != time.Second {
		t.Fatalf("queued delay = %v, want 1s", d2)
	}
}

func TestBucketIdleResetsToNow(t *testing.T) {
	b := NewBucket(1e6)
	now := time.Now()
	b.Reserve(now, 1000)
	// Much later, the link is idle again: delay is just the transfer time.
	later := now.Add(time.Hour)
	if d := b.Reserve(later, 1000); d != time.Millisecond {
		t.Fatalf("delay after idle = %v, want 1ms", d)
	}
}

func TestBucketZeroBytes(t *testing.T) {
	b := NewBucket(1)
	if d := b.Reserve(time.Now(), 0); d != 0 {
		t.Fatalf("zero-byte reserve delayed %v", d)
	}
}

func TestSetRate(t *testing.T) {
	b := NewBucket(1e6)
	b.SetRate(2e6)
	if b.Rate() != 2e6 {
		t.Fatal("SetRate did not stick")
	}
	if d := b.Reserve(time.Now(), 2_000_000); d != time.Second {
		t.Fatalf("delay = %v, want 1s", d)
	}
}

// tokenBucket is the reference model a burst bucket must reproduce: a
// token bucket of depth burst that starts full, refills at rate, and
// lets an oversized request through by going into debt, which the next
// requests repay by waiting debt/rate.
type tokenBucket struct {
	rate, burst, tokens float64
	last                time.Time
}

func (tb *tokenBucket) reserve(now time.Time, n int) time.Duration {
	tb.tokens = min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	tb.last = now
	tb.tokens -= float64(n)
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second))
}

// fluidBucket is the fluid model Reserve must reproduce exactly at
// burst 0: a transfer waits until its last byte is on the wire.
type fluidBucket struct {
	rate     float64
	nextFree time.Time
}

func (fb *fluidBucket) reserve(now time.Time, n int) time.Duration {
	start := now
	if fb.nextFree.After(start) {
		start = fb.nextFree
	}
	fb.nextFree = start.Add(time.Duration(float64(n) / fb.rate * float64(time.Second)))
	return fb.nextFree.Sub(now)
}

// TestBurstBucketMatchesTokenBucket: the GCRA form agrees with the token
// bucket it implements up to rounding — the i-th reservation may be off by
// at most i ns, since nextFree adds up truncated nanosecond durations
// where the token count stays a float — and at burst 0 it is exactly the
// fluid Reserve. Offered load runs at about 5/6 of the rate, so the
// sequences alternate between backlog and a full bucket, and one
// reservation in 50 is larger than the burst.
func TestBurstBucketMatchesTokenBucket(t *testing.T) {
	for _, c := range []struct{ rate, burst float64 }{
		{32 << 20, 4 << 20},
		{1e6, 256 << 10},
		{1000, 1000},
	} {
		t0 := time.Unix(0, 0)
		rng := rand.New(rand.NewSource(int64(c.rate)))
		gcra := NewBurstBucket(c.rate, c.burst)
		ref := &tokenBucket{rate: c.rate, burst: c.burst, tokens: c.burst, last: t0}
		fluid, fluid0 := NewBucket(c.rate), &fluidBucket{rate: c.rate}
		now := t0
		var drift time.Duration
		waited := 0
		for i := 0; i < 20000; i++ {
			n := 1 + rng.Intn(int(c.burst)/2)
			if rng.Intn(50) == 0 {
				n = int(c.burst) + rng.Intn(int(c.burst))
			}
			now = now.Add(time.Duration(rng.Float64() * 2.4 * float64(n) / c.rate * float64(time.Second)))
			got, want := gcra.Reserve(now, n), ref.reserve(now, n)
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			if diff > time.Duration(i+1) {
				t.Fatalf("rate %.0f burst %.0f: reservation %d of %d B: delay %v, token bucket %v (|diff| %v > %d ns)",
					c.rate, c.burst, i+1, n, got, want, diff, i+1)
			}
			drift = max(drift, diff)
			if want > 0 {
				waited++
			}
			if got, want := fluid.Reserve(now, n), fluid0.reserve(now, n); got != want {
				t.Fatalf("rate %.0f burst 0: reservation %d: delay %v, fluid Reserve %v", c.rate, i, got, want)
			}
		}
		t.Logf("rate %.0f B/s burst %.0f B: %d of 20000 reservations waited, max drift %v", c.rate, c.burst, waited, drift)
		if waited < 1000 || waited > 19000 {
			t.Fatalf("rate %.0f burst %.0f: %d of 20000 reservations waited; the sequence must exercise both a backlog and a full bucket",
				c.rate, c.burst, waited)
		}
	}
}

func TestPathNarrowestLinkDominates(t *testing.T) {
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())
	fast := NewBucket(100e6)
	slow := NewBucket(10e6)
	p := &Path{Clock: clk, Buckets: []*Bucket{fast, slow}}
	// 10 MB: 0.1s on fast, 1s on slow — the narrow link sets the delay.
	if d := p.Transfer(10_000_000); d != time.Second {
		t.Fatalf("transfer delay = %v, want 1s (slow link)", d)
	}
}

func TestPathLatencyFloor(t *testing.T) {
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())
	p := &Path{Clock: clk, Latency: 5 * time.Millisecond}
	if d := p.Transfer(1); d != 5*time.Millisecond {
		t.Fatalf("delay = %v, want latency floor 5ms", d)
	}
}

func TestConnThrottlesWrites(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())
	bucket := NewBucket(1e6) // 1 MB/s virtual
	tc := NewFaultConn(a, &Path{Clock: clk, Buckets: []*Bucket{bucket}}, nil, "")

	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	before := clk.Now()
	payload := make([]byte, 100_000) // 100ms virtual at 1 MB/s
	if _, err := tc.Write(payload); err != nil {
		t.Fatal(err)
	}
	// The write must have slept out the whole throttle delay on the
	// virtual clock and left the bucket drained (a zero-byte reserve
	// costs nothing once the backlog is paid down).
	if waited := clk.Since(before); waited < 100*time.Millisecond {
		t.Fatalf("throttled write advanced only %v of virtual time, want >= 100ms", waited)
	}
	if d := bucket.Reserve(clk.Now(), 0); d != 0 {
		t.Fatal("zero reserve after write should be 0")
	}
}

// TestFaultConnWithoutRulesIsInert: every link carries a fault engine,
// scheduled against or not. One with no rules must pass bytes through
// untouched both ways, refuse no dial, and draw nothing from its RNG —
// so arming every deployment cannot shift a seeded run's fault stream.
func TestFaultConnWithoutRulesIsInert(t *testing.T) {
	const seed = 42
	a, b := net.Pipe()
	defer b.Close()
	f := NewFaults(vclock.NewManual(time.Unix(0, 0)), seed)
	fc := NewFaultConn(a, nil, f, "p0-node0")
	defer fc.Close()

	payload := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(payload)
	got := make([]byte, len(payload))
	for _, dir := range []struct {
		name string
		w    net.Conn
		r    net.Conn
	}{{"write", fc, b}, {"read", b, fc}} {
		errc := make(chan error, 1)
		go func() { _, err := dir.w.Write(payload); errc <- err }()
		if _, err := io.ReadFull(dir.r, got); err != nil {
			t.Fatalf("%s: %v", dir.name, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%s: %v", dir.name, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: bytes changed crossing a rule-less fault conn", dir.name)
		}
	}
	if f.Refused("p0-node0") {
		t.Error("a rule-less engine refused a dial")
	}
	if n := len(f.Counts()); n != 0 {
		t.Errorf("a rule-less engine counted %d fault kinds", n)
	}
	if got, want := f.rng.Int63(), rand.New(rand.NewSource(seed)).Int63(); got != want {
		t.Error("traffic over a rule-less engine drew from its RNG")
	}
}

func TestBandwidthForMemory(t *testing.T) {
	cases := []struct {
		memMB int
		lo    float64
		hi    float64
	}{
		{128, 50e6, 50e6},
		{64, 50e6, 50e6},     // clamped at floor
		{1024, 160e6, 160e6}, // plateau begins
		{3008, 160e6, 160e6}, // stays at plateau
		{576, 100e6, 120e6},  // mid-range interpolation
	}
	for _, c := range cases {
		got := BandwidthForMemory(c.memMB)
		if got < c.lo || got > c.hi {
			t.Errorf("BandwidthForMemory(%d) = %.0f, want in [%.0f, %.0f]", c.memMB, got, c.lo, c.hi)
		}
	}
	// Monotone non-decreasing in memory.
	prev := 0.0
	for m := 128; m <= 3008; m += 64 {
		bw := BandwidthForMemory(m)
		if bw < prev {
			t.Fatalf("bandwidth not monotone at %d MB", m)
		}
		prev = bw
	}
}
