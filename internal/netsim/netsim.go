// Package netsim models network bandwidth in virtual time.
//
// The paper's latency results are shaped by two resources: each Lambda's
// memory-proportional bandwidth (50-160 MB/s between 128 MB and 3008 MB
// functions, §5 setup) and the shared NIC of the EC2 VM that hosts
// co-located functions (the contention behind Figure 4). netsim provides
// token-bucket style rate limiting on both, composed per connection, with
// all waiting done on a vclock.Clock so benchmarks can compress time.
package netsim

import (
	"sync"
	"time"

	"infinicache/internal/vclock"
)

// Bucket is a rate limiter in the GCRA form of a token bucket: a transfer
// of n bytes occupies the link for n/rate seconds of virtual time,
// serialized with other transfers through the same bucket, and a
// reservation waits only for the part of the backlog beyond the burst
// tolerance — delay = max(0, nextFree − now − burst/rate). At burst 0
// that is the fluid model: a transfer waits until its last byte is on
// the wire.
type Bucket struct {
	mu       sync.Mutex
	rate     float64 // bytes per virtual second
	burst    float64 // bytes of backlog let through without waiting
	nextFree time.Time
}

// NewBucket returns a bucket with the given rate in bytes per virtual
// second and no burst tolerance. A non-positive rate means unlimited.
func NewBucket(rate float64) *Bucket {
	return &Bucket{rate: rate}
}

// NewBurstBucket returns a bucket that lets burst bytes through ahead of
// the rate: a token bucket of depth burst that starts full and repays
// an oversized reservation from later refill, so no single transfer can
// block the bucket for good.
func NewBurstBucket(rate, burst float64) *Bucket {
	return &Bucket{rate: rate, burst: burst}
}

// Rate returns the bucket's rate in bytes per virtual second (0 = unlimited).
func (b *Bucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// SetRate changes the bucket's rate.
func (b *Bucket) SetRate(rate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rate = rate
}

// Reserve books n bytes of transfer starting no earlier than now and
// returns the virtual delay until it is due: the time until the
// transfer's last byte is on the wire, less the burst tolerance.
func (b *Bucket) Reserve(now time.Time, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return 0
	}
	start := now
	if b.nextFree.After(start) {
		start = b.nextFree
	}
	dur := time.Duration(float64(n) / b.rate * float64(time.Second))
	b.nextFree = start.Add(dur)
	delay := b.nextFree.Sub(now)
	if b.burst > 0 {
		delay = max(0, delay-time.Duration(b.burst/b.rate*float64(time.Second)))
	}
	return delay
}

// Wait reserves n bytes at clk's now and blocks until the reservation
// is due. It reports false if done closes first; the bytes stay booked.
func (b *Bucket) Wait(clk vclock.Clock, done <-chan struct{}, n int) bool {
	d := b.Reserve(clk.Now(), n)
	if d <= 0 {
		return true
	}
	select {
	case <-clk.After(d):
		return true
	case <-done:
		return false
	}
}

// Path is a sequence of buckets a transfer must traverse plus a fixed
// one-way latency. The effective delay is the maximum of the per-bucket
// delays (the narrowest link dominates in a fluid model).
type Path struct {
	Clock   vclock.Clock
	Latency time.Duration
	Buckets []*Bucket
}

// Transfer blocks (in virtual time) for the duration needed to move n
// bytes across the path and returns that duration.
func (p *Path) Transfer(n int) time.Duration {
	delay := p.Latency
	now := p.Clock.Now()
	for _, b := range p.Buckets {
		if d := b.Reserve(now, n); d > delay {
			delay = d
		}
	}
	if delay > 0 {
		p.Clock.Sleep(delay)
	}
	return delay
}

// BandwidthForMemory returns the modeled Lambda function bandwidth in
// bytes per second for a function with memMB megabytes of memory,
// interpolating the paper's observed 50 MB/s at 128 MB up to 160 MB/s at
// and above 1024 MB (larger functions "eliminate the network bottleneck",
// §5.1, with the latency plateau above 1024 MB).
func BandwidthForMemory(memMB int) float64 {
	const (
		minMB = 128.0
		maxMB = 1024.0
		minBW = 50e6
		maxBW = 160e6
	)
	m := float64(memMB)
	if m <= minMB {
		return minBW
	}
	if m >= maxMB {
		return maxBW
	}
	frac := (m - minMB) / (maxMB - minMB)
	return minBW + frac*(maxBW-minBW)
}

// HostBandwidth is the modeled aggregate NIC bandwidth of a Lambda-hosting
// VM (bytes per virtual second). It caps the sum of co-located function
// transfers, producing the contention measured in Figure 4.
const HostBandwidth = 200e6
