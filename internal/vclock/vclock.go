// Package vclock provides a virtual clock abstraction so the live system,
// benchmarks, and tests can run against real time, compressed time, or
// manually stepped time.
//
// All InfiniCache components express durations (billing cycles, warm-up
// intervals, transfer times from the bandwidth model) in *virtual* time.
// A ScaledClock maps virtual durations onto shorter real sleeps, letting a
// benchmark that models a 600 ms Lambda-side transfer finish in 60 ms of
// wall time without distorting any measured ratio.
//
// A compressed clock only keeps ratios if a short wait takes the time it
// asks for. On Linux the Go runtime parks an idle processor in epoll_wait
// with a whole-millisecond timeout, so a runtime timer under 1 ms fires
// after ~1.08 ms: at a 0.1 scale a 50 µs link latency or a 75 µs chunk
// transfer costs a millisecond of wall time, and at 0.01 a 5 µs latency
// costs 100 virtual ms, a whole billing cycle. Real and Scaled therefore
// hand every wait shorter than 10 ms of real time to one process-wide
// waker: a timerfd the netpoller watches, armed for the earliest
// deadline of a heap of waiters and read by one goroutine while any wait
// is queued. Waits of 10 ms or more, where the rounding is at most 10 %,
// stay on the runtime timer, so an abandoned long timeout stays
// garbage-collectable. Off Linux, or when timerfd_create fails, every
// wait uses the runtime timer. No wait returns before its deadline, and
// none spins.
package vclock

import (
	"sync"
	"time"
)

// Clock is the time source used throughout the repository.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Time
	// Sleep blocks for a virtual duration.
	Sleep(d time.Duration)
	// After returns a channel that fires after a virtual duration.
	After(d time.Duration) <-chan time.Time
	// Since returns the virtual time elapsed since t.
	Since(t time.Time) time.Duration
}

// Real is the wall clock.
type Real struct{}

// NewReal returns the wall clock.
func NewReal() Real { return Real{} }

func (Real) Now() time.Time                         { return time.Now() }
func (Real) Sleep(d time.Duration)                  { sleep(d) }
func (Real) After(d time.Duration) <-chan time.Time { return after(d) }
func (Real) Since(t time.Time) time.Duration        { return time.Since(t) }

// preciseBound is the real wait below which the runtime timer's
// millisecond rounding would distort the wait by more than 10 %; shorter
// waits go to the precise waker.
const preciseBound = 10 * time.Millisecond

// after returns a channel that receives the time once the real duration
// d has passed.
func after(d time.Duration) <-chan time.Time {
	switch {
	case d <= 0:
		ch := make(chan time.Time, 1)
		ch <- time.Now()
		return ch
	case d < preciseBound:
		return preciseAfter(d)
	}
	return time.After(d)
}

// sleep blocks for the real duration d.
func sleep(d time.Duration) {
	if d > 0 && d < preciseBound {
		<-preciseAfter(d)
		return
	}
	time.Sleep(d) // returns at once for d <= 0
}

// Scaled compresses virtual time by a constant factor: a virtual duration d
// takes d*scale of wall time. Now() reports virtual time that advances
// 1/scale times faster than the wall clock.
type Scaled struct {
	scale float64
	epoch time.Time // wall-clock epoch
	base  time.Time // virtual epoch
}

// NewScaled returns a clock where virtual durations are multiplied by
// scale before sleeping; scale = 0.1 runs 10x faster than real time.
func NewScaled(scale float64) *Scaled {
	if scale <= 0 {
		panic("vclock: scale must be positive")
	}
	now := time.Now()
	return &Scaled{scale: scale, epoch: now, base: now}
}

func (s *Scaled) Now() time.Time {
	wall := time.Since(s.epoch)
	return s.base.Add(time.Duration(float64(wall) / s.scale))
}

func (s *Scaled) Sleep(d time.Duration) { sleep(s.real(d)) }

func (s *Scaled) After(d time.Duration) <-chan time.Time { return after(s.real(d)) }

// real is the wall time a virtual duration d takes.
func (s *Scaled) real(d time.Duration) time.Duration { return time.Duration(float64(d) * s.scale) }

func (s *Scaled) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Manual is a hand-stepped clock for deterministic tests and the
// discrete-event simulator. Sleep blocks until another goroutine Advances
// the clock past the deadline.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewManual returns a manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	deadline := m.now.Add(d)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, &waiter{deadline: deadline, ch: ch})
	return ch
}

func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// Advance moves the clock forward by d, waking any sleepers whose deadline
// has passed.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	kept := m.waiters[:0]
	var fire []*waiter
	for _, w := range m.waiters {
		if !w.deadline.After(now) {
			fire = append(fire, w)
		} else {
			kept = append(kept, w)
		}
	}
	m.waiters = kept
	m.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}

// Pump starts a goroutine that steps the clock for tests that run real
// goroutines on virtual time: whenever something is blocked on m it
// advances 5 ms of virtual time, then sleeps 200 µs of real time so the
// goroutines it woke can run. That sleep is on the runtime timer, not
// the precise waker, so on Linux it lasts ~1.08 ms: the cadence is 5
// virtual ms per ~1.08 real ms, about 4.6x, and the tests built on the
// pump were tuned against it. Time thus moves only while a component is
// actually waiting on it, and the cadence caps compression, so no
// virtual deadline (a billing cycle, a ping timeout, T_bak)
// expires while the real work it waits on — a round trip, a chunk store
// — is still in flight on a busy one-core scheduler; pumping faster
// makes mid-migration sources time out and chunks go missing. stop ends
// the pump and waits for it; register it before building whatever runs
// on the clock (t.Cleanup(clk.Pump())) so the pump outlives shutdown
// paths that still sleep on the clock.
func (m *Manual) Pump() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if m.Waiters() > 0 {
				m.Advance(5 * time.Millisecond)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() { close(quit); <-done }
}

// Waiters returns the number of goroutines blocked on the clock.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}
