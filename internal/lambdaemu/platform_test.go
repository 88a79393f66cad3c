package lambdaemu

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/netsim"
	"infinicache/internal/vclock"
)

// fastPlatform runs on a pumped manual clock: unlike a Scaled clock, no
// virtual deadline can expire while real work — goroutine scheduling,
// channel handoffs — is still in flight, so billing and reclaim
// assertions stay exact under -race and -count N.
func fastPlatform(t *testing.T, policy ReclaimPolicy) *Platform {
	t.Helper()
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())
	p := New(Config{
		Clock:           clk,
		ColdStartDelay:  time.Millisecond,
		WarmInvokeDelay: time.Millisecond,
		ReclaimPolicy:   policy,
		Seed:            1,
	})
	t.Cleanup(p.Close)
	return p
}

func TestRegisterValidation(t *testing.T) {
	p := New(Config{Clock: vclock.NewReal()})
	defer p.Close()
	if _, err := p.Register("f", FunctionConfig{MemoryMB: 0}, nil); err == nil {
		t.Fatal("zero memory accepted")
	}
	if _, err := p.Register("f", FunctionConfig{MemoryMB: 4096}, nil); err == nil {
		t.Fatal("over-host memory accepted")
	}
	if _, err := p.Register("f", FunctionConfig{MemoryMB: 256}, func(*Context, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("f", FunctionConfig{MemoryMB: 256}, func(*Context, []byte) {}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	p := fastPlatform(t, nil)
	if err := p.Invoke("ghost", nil); err == nil {
		t.Fatal("invoking unknown function succeeded")
	}
}

func TestWarmStateSurvivesBetweenInvocations(t *testing.T) {
	p := fastPlatform(t, nil)
	got := make(chan int, 10)
	_, err := p.Register("counter", FunctionConfig{MemoryMB: 256}, func(ctx *Context, _ []byte) {
		n, _ := ctx.Locals()["n"].(int)
		n++
		ctx.Locals()["n"] = n
		got <- n
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := p.Invoke("counter", nil); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-got:
			if n != i {
				t.Fatalf("invocation %d saw counter %d (state not retained)", i, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("invocation timed out")
		}
	}
	if c := p.InstanceCount("counter"); c != 1 {
		t.Fatalf("instances = %d, want 1 (reuse warm)", c)
	}
}

func TestAutoScalingSpawnsPeerReplica(t *testing.T) {
	p := fastPlatform(t, nil)
	block := make(chan struct{})
	started := make(chan string, 4)
	_, err := p.Register("busy", FunctionConfig{MemoryMB: 256}, func(ctx *Context, _ []byte) {
		started <- ctx.InstanceID()
		<-block
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("busy", nil); err != nil {
		t.Fatal(err)
	}
	id1 := <-started
	// Second invoke while the first instance is busy must auto-scale.
	if err := p.Invoke("busy", nil); err != nil {
		t.Fatal(err)
	}
	id2 := <-started
	if id1 == id2 {
		t.Fatalf("expected a peer replica, got same instance %s", id1)
	}
	if c := p.InstanceCount("busy"); c != 2 {
		t.Fatalf("instances = %d, want 2", c)
	}
	close(block)
}

func TestBinPackingFirstFit(t *testing.T) {
	p := fastPlatform(t, nil)
	var wg sync.WaitGroup
	// 256 MB functions: 11 fit on a 3008 MB host.
	for i := 0; i < 11; i++ {
		name := fmt.Sprintf("f%d", i)
		wg.Add(1)
		if _, err := p.Register(name, FunctionConfig{MemoryMB: 256}, func(*Context, []byte) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
		if err := p.Invoke(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if hc := p.HostCount(); hc != 1 {
		t.Fatalf("11 x 256MB functions used %d hosts, want 1", hc)
	}
	// One more overflows onto a second host.
	wg.Add(1)
	if _, err := p.Register("f11", FunctionConfig{MemoryMB: 256}, func(*Context, []byte) { wg.Done() }); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("f11", nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if hc := p.HostCount(); hc != 2 {
		t.Fatalf("12th function: hosts = %d, want 2", hc)
	}
}

func TestLargeFunctionsGetExclusiveHosts(t *testing.T) {
	// §3.1: with >= 1.5 GB functions every VM host is exclusive.
	p := fastPlatform(t, nil)
	var wg sync.WaitGroup
	names := []string{"big0", "big1", "big2"}
	for _, name := range names {
		wg.Add(1)
		if _, err := p.Register(name, FunctionConfig{MemoryMB: 1536}, func(*Context, []byte) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
		if err := p.Invoke(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if hc := p.HostsTouched(names); hc != 3 {
		t.Fatalf("3 x 1.5GB functions touched %d hosts, want 3 (exclusive)", hc)
	}
}

func TestBillingLedgerRoundsUp(t *testing.T) {
	// On the pumped manual clock the handler's 130ms virtual sleep is
	// exact — no scheduler noise can leak into the billed duration, so
	// the ceil-to-100ms assertion is deterministic.
	p := fastPlatform(t, nil)
	done := make(chan struct{}, 1)
	_, err := p.Register("work", FunctionConfig{MemoryMB: 1024}, func(ctx *Context, _ []byte) {
		ctx.Clock().Sleep(130 * time.Millisecond) // virtual
		done <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("work", nil); err != nil {
		t.Fatal(err)
	}
	<-done
	// Give runInvocation a moment to record.
	deadline := time.Now().Add(5 * time.Second)
	var u Usage
	for time.Now().Before(deadline) {
		u = p.Ledger().ForFunction("work")
		if u.Invocations == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if u.Invocations != 1 {
		t.Fatalf("invocations = %d", u.Invocations)
	}
	if u.BilledDuration != 200*time.Millisecond {
		t.Fatalf("billed = %v, want 200ms (ceil100 of ~130ms)", u.BilledDuration)
	}
	wantGBs := 0.2 * 1.0 // 0.2s * 1GB
	if diff := u.GBSeconds - wantGBs; diff < -0.001 || diff > 0.001 {
		t.Fatalf("GBSeconds = %v, want %v", u.GBSeconds, wantGBs)
	}
}

func TestHandlerPanicIsContained(t *testing.T) {
	p := fastPlatform(t, nil)
	_, err := p.Register("boom", FunctionConfig{MemoryMB: 128}, func(*Context, []byte) {
		panic("function error")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("boom", nil); err != nil {
		t.Fatal(err)
	}
	// The instance must become idle again and be reusable.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Ledger().ForFunction("boom").Invocations == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("panicking invocation never completed")
}

func TestForceReclaimDropsStateAndSignalsDone(t *testing.T) {
	p := fastPlatform(t, nil)
	ready := make(chan *Context, 1)
	_, err := p.Register("victim", FunctionConfig{MemoryMB: 256}, func(ctx *Context, _ []byte) {
		ctx.Locals()["data"] = "cached"
		ready <- ctx
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("victim", nil); err != nil {
		t.Fatal(err)
	}
	ctx := <-ready
	// Wait for idle.
	for p.Ledger().ForFunction("victim").Invocations == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := p.ForceReclaimMatching("victim", -1); n != 1 {
		t.Fatalf("ForceReclaimMatching = %d, want 1", n)
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("Done() not signalled on reclaim")
	}
	if !ctx.Reclaimed() {
		t.Fatal("Reclaimed() = false after reclaim")
	}
	if p.InstanceCount("victim") != 0 {
		t.Fatal("instance still alive after reclaim")
	}
	log := p.ReclaimLog()
	if len(log) != 1 || log[0].Reason != "forced" || log[0].Function != "victim" {
		t.Fatalf("reclaim log = %+v", log)
	}
	// Next invoke cold-starts a new instance with fresh state.
	if err := p.Invoke("victim", nil); err != nil {
		t.Fatal(err)
	}
	ctx2 := <-ready
	if ctx2.InstanceID() == ctx.InstanceID() {
		t.Fatal("reclaimed instance was resurrected with the same ID")
	}
}

func TestReclaimFreesHostMemory(t *testing.T) {
	p := fastPlatform(t, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	if _, err := p.Register("a", FunctionConfig{MemoryMB: 1536}, func(*Context, []byte) { wg.Done() }); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("a", nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	p.ForceReclaimMatching("a", -1)
	// A second large function must fit into the freed host slot.
	wg.Add(1)
	if _, err := p.Register("b", FunctionConfig{MemoryMB: 1536}, func(*Context, []byte) { wg.Done() }); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("b", nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if hc := p.HostCount(); hc != 1 {
		t.Fatalf("hosts = %d, want 1 (freed slot reused)", hc)
	}
}

func TestReclaimTickPolicyDriven(t *testing.T) {
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())
	p := New(Config{
		Clock:           clk,
		ColdStartDelay:  time.Millisecond,
		WarmInvokeDelay: time.Millisecond,
		Seed:            7,
		ReclaimPolicy:   PoissonPerMinute{RatePerMinute: 1000}, // reclaim everything idle
	})
	t.Cleanup(p.Close)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		name := fmt.Sprintf("n%d", i)
		if _, err := p.Register(name, FunctionConfig{MemoryMB: 256}, func(*Context, []byte) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
		if err := p.Invoke(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// Tick until everything is gone. The platform's own reclaim daemon
	// (armed by the policy) may also fire on the pumped clock, so the
	// assertion counts outcomes — instances gone, one reclaim-log entry
	// each — rather than this loop's ReclaimTick return values.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && p.InstanceCount("") > 0 {
		p.ReclaimTick(1)
		time.Sleep(time.Millisecond)
	}
	if c := p.InstanceCount(""); c != 0 {
		t.Fatalf("%d alive instances remain", c)
	}
	if got := len(p.ReclaimLog()); got != 5 {
		t.Fatalf("reclaim log has %d entries, want 5 (one per instance)", got)
	}
}

func TestCloseIsIdempotentAndStopsInvokes(t *testing.T) {
	p := fastPlatform(t, PoissonPerMinute{RatePerMinute: 0.1})
	if _, err := p.Register("f", FunctionConfig{MemoryMB: 128}, func(*Context, []byte) {}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if err := p.Invoke("f", nil); err == nil {
		t.Fatal("Invoke after Close succeeded")
	}
	if _, err := p.Register("g", FunctionConfig{MemoryMB: 128}, nil); err == nil {
		t.Fatal("Register after Close succeeded")
	}
}

func TestConcurrentInvocationsAreAllBilled(t *testing.T) {
	p := fastPlatform(t, nil)
	var ran atomic.Int64
	if _, err := p.Register("f", FunctionConfig{MemoryMB: 128}, func(*Context, []byte) {
		ran.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := p.Invoke("f", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p.Ledger().ForFunction("f").Invocations == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Ledger().ForFunction("f").Invocations; got != n {
		t.Fatalf("billed invocations = %d, want %d", got, n)
	}
	if ran.Load() != n {
		t.Fatalf("handler ran %d times, want %d", ran.Load(), n)
	}
}

// TestContextDialGoesThroughConfigDial: a handler's only way out is the
// transport the platform was built over. Its bytes arrive at a listener
// on that transport, charged to the instance's bandwidth in virtual
// time; a reclaim hangs the connection up under the peer; a fault rule
// refuses the dial by function name; and a platform built without a
// transport fails every dial instead of reaching for a real network.
func TestContextDialGoesThroughConfigDial(t *testing.T) {
	nw := netsim.NewNetwork()
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())
	faults := netsim.NewFaults(clk, 1)
	p := New(Config{
		Clock:           clk,
		ColdStartDelay:  time.Millisecond,
		WarmInvokeDelay: time.Millisecond,
		Dial:            nw.Dial,
		NetFaults:       faults,
	})
	t.Cleanup(p.Close)

	const n = 5_000_000 // 100 ms of virtual time at a 128 MB function's 50 MB/s
	dialErr := make(chan error, 1)
	wrote := make(chan time.Duration, 1)
	if _, err := p.Register("f", FunctionConfig{MemoryMB: 128}, func(ctx *Context, _ []byte) {
		c, err := ctx.Dial("srv")
		dialErr <- err
		if err != nil {
			return
		}
		t0 := ctx.Clock().Now()
		if _, err := c.Write(make([]byte, n)); err != nil {
			t.Error(err)
		}
		wrote <- ctx.Clock().Since(t0)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Invoke("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := <-dialErr; err != nil {
		t.Fatal(err)
	}
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.CopyN(io.Discard, srv, n); err != nil {
		t.Fatalf("read %d of %d bytes: %v", got, n, err)
	}
	if d := <-wrote; d < 100*time.Millisecond {
		t.Fatalf("a %d-byte write took %v of virtual time, want >= 100ms (instance bandwidth)", n, d)
	}
	if got := p.ForceReclaimMatching("f", -1); got != 1 {
		t.Fatalf("reclaimed %d instances, want 1", got)
	}
	if _, err := srv.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the instance was reclaimed: %v, want io.EOF", err)
	}

	faults.Add("f", netsim.FaultRefuse, 0, 0, 0)
	if err := p.Invoke("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := <-dialErr; err == nil {
		t.Fatal("dial went through a refuse rule naming the function")
	}

	bare := New(Config{Clock: clk, ColdStartDelay: time.Millisecond})
	t.Cleanup(bare.Close)
	if _, err := bare.Register("g", FunctionConfig{MemoryMB: 128}, func(ctx *Context, _ []byte) {
		_, err := ctx.Dial("srv")
		dialErr <- err
	}); err != nil {
		t.Fatal(err)
	}
	if err := bare.Invoke("g", nil); err != nil {
		t.Fatal(err)
	}
	if err := <-dialErr; err == nil {
		t.Fatal("a platform without Config.Dial let a handler dial")
	}
}
