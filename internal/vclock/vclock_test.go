package vclock

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestRealClockAdvances(t *testing.T) {
	c := NewReal()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) < time.Millisecond {
		t.Fatal("real clock did not advance")
	}
}

func TestScaledClockCompressesSleep(t *testing.T) {
	c := NewScaled(0.01) // 100x faster
	start := time.Now()
	c.Sleep(500 * time.Millisecond) // should take ~5ms wall
	wall := time.Since(start)
	if wall > 200*time.Millisecond {
		t.Fatalf("scaled sleep took %v wall time, want ~5ms", wall)
	}
}

func TestScaledClockVirtualNow(t *testing.T) {
	c := NewScaled(0.01)
	t0 := c.Now()
	time.Sleep(10 * time.Millisecond) // = 1s virtual
	elapsed := c.Since(t0)
	if elapsed < 500*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("virtual elapsed = %v, want ~1s", elapsed)
	}
}

func TestScaledClockInvalidScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for scale <= 0")
		}
	}()
	NewScaled(0)
}

// TestShortWaitIsPrecise pins the waker: a 50 µs sleep takes tens of
// µs more, not the runtime timer's whole millisecond.
func TestShortWaitIsPrecise(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the precise waker is Linux-only; elsewhere waits use the runtime timer")
	}
	c := NewScaled(1)
	took := make([]time.Duration, 200)
	for i := range took {
		start := time.Now()
		c.Sleep(50 * time.Microsecond)
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med > 300*time.Microsecond {
		t.Fatalf("median 50µs sleep took %v, want under 300µs", med)
	}
}

// TestShortWaitsNeverEarly races Sleep and After on both wall-time
// clocks, with waits on either side of the precise bound, and checks
// that every wait returns and none returns before its deadline.
func TestShortWaitsNeverEarly(t *testing.T) {
	clocks := []struct {
		c     Clock
		scale float64
	}{{NewReal(), 1}, {NewScaled(0.5), 0.5}}
	for _, cl := range clocks {
		for _, d := range []time.Duration{0, -time.Millisecond} {
			select {
			case <-cl.c.After(d):
			default:
				t.Fatalf("After(%v) did not fire at once", d)
			}
			cl.c.Sleep(d)
		}
	}
	var wg sync.WaitGroup
	for g := range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			cl := clocks[g%len(clocks)]
			for i := range 20 {
				d := time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
				if g == 0 && i == 0 {
					d = 15 * time.Millisecond // one wait on the runtime timer
				}
				want := time.Duration(float64(d) * cl.scale)
				start := time.Now()
				if rng.Intn(2) == 0 {
					cl.c.Sleep(d)
				} else {
					<-cl.c.After(d)
				}
				if took := time.Since(start); took < want {
					t.Errorf("a %v wait (%v real) returned after %v", d, want, took)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("short waits did not all return")
	}
}

// TestShortWaitLeavesNoGoroutine pins the waker's reader to the waits
// it serves: once none is queued it returns, so a process that has
// stopped waiting holds no goroutine for it.
func TestShortWaitLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	NewReal().Sleep(50 * time.Microsecond)
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines outlived the wait", n-before)
	}
}

func TestManualClockNow(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewManual(start)
	if !c.Now().Equal(start) {
		t.Fatal("manual clock wrong start")
	}
	c.Advance(time.Hour)
	if got := c.Now(); !got.Equal(start.Add(time.Hour)) {
		t.Fatalf("Now = %v, want %v", got, start.Add(time.Hour))
	}
	if c.Since(start) != time.Hour {
		t.Fatal("Since wrong")
	}
}

func TestManualClockSleepWakesOnAdvance(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	woke := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Sleep(10 * time.Second)
		close(woke)
	}()
	// Wait for the sleeper to register.
	for c.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Advance(5 * time.Second)
	select {
	case <-woke:
		t.Fatal("sleeper woke too early")
	case <-time.After(10 * time.Millisecond):
	}
	c.Advance(5 * time.Second)
	select {
	case <-woke:
	case <-time.After(time.Second):
		t.Fatal("sleeper did not wake")
	}
	wg.Wait()
}

func TestManualClockAfterZero(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	select {
	case <-c.After(0):
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestManualClockMultipleWaiters(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	const n = 8
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			c.Sleep(d)
		}(time.Duration(i) * time.Second)
	}
	for c.Waiters() < n {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Duration(n) * time.Second)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("waiters stuck: %d remain", c.Waiters())
	}
}

func TestClockInterfaceCompliance(t *testing.T) {
	var _ Clock = NewReal()
	var _ Clock = NewScaled(1)
	var _ Clock = NewManual(time.Now())
}

func TestManualPump(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	stop := c.Pump()
	time.Sleep(5 * time.Millisecond)
	if !c.Now().Equal(time.Unix(0, 0)) {
		t.Fatal("the pump advanced a clock nothing was waiting on")
	}
	c.Sleep(time.Second) // returns only because the pump steps the clock
	stop()
	at := c.Now()
	c.After(time.Hour) // a waiter a running pump would serve
	time.Sleep(5 * time.Millisecond)
	if !c.Now().Equal(at) {
		t.Fatal("the clock moved after stop")
	}
}
