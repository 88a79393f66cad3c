package netsim

import (
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
	tc := NewConn(a, &Path{Clock: clk, Buckets: []*Bucket{bucket}})

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
