package vclock

import (
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
