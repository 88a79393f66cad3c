package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"infinicache/internal/hashring"
	"infinicache/internal/netsim"
	"infinicache/internal/vclock"
)

func testMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i), PoolSize: 8}
	}
	return ms
}

func TestPublishVersionsMonotonic(t *testing.T) {
	m := NewMembership()
	if m.Current() != nil {
		t.Fatal("fresh membership has an epoch")
	}
	var last uint64
	for i := 1; i <= 5; i++ {
		e := m.Publish(testMembers(i))
		if e.Version() <= last {
			t.Fatalf("version %d not > %d", e.Version(), last)
		}
		if e.Version() != uint64(i) {
			t.Fatalf("version = %d, want %d", e.Version(), i)
		}
		last = e.Version()
		if got := m.Current(); got != e {
			t.Fatal("Current does not return the published epoch")
		}
	}
}

func TestPublishVersionsMonotonicUnderConcurrency(t *testing.T) {
	m := NewMembership()
	const workers, rounds = 8, 50
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := m.Publish(testMembers(2)).Version()
				mu.Lock()
				if seen[v] {
					t.Errorf("version %d issued twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*rounds {
		t.Fatalf("issued %d versions, want %d", len(seen), workers*rounds)
	}
}

func TestEpochOwnerMatchesClientRing(t *testing.T) {
	// The epoch ring must agree with a ring the client builds itself
	// over the same addresses (same constructor, same keying) —
	// otherwise a fresh client and an epoch-driven proxy would disagree
	// on ownership and every request would redirect.
	members := testMembers(4)
	e := NewEpoch(1, members)
	ring := hashring.New(0)
	for _, m := range members {
		ring.Add(m.Addr)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("obj-%d", i)
		want := ring.Locate(key)
		if got := e.Owner(key); got != want {
			t.Fatalf("key %q: epoch owner %q != client ring %q", key, got, want)
		}
	}
}

func TestEpochEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEpoch(42, []Member{
		{Addr: "127.0.0.1:9002", PoolSize: 16},
		{Addr: "127.0.0.1:9001", PoolSize: 8},
	})
	d, err := DecodeEpoch(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.Version() != 42 {
		t.Fatalf("version = %d", d.Version())
	}
	ms := d.Members()
	if len(ms) != 2 || ms[0].Addr != "127.0.0.1:9001" || ms[0].PoolSize != 8 ||
		ms[1].Addr != "127.0.0.1:9002" || ms[1].PoolSize != 16 {
		t.Fatalf("members = %+v", ms)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if d.Owner(key) != e.Owner(key) {
			t.Fatalf("decoded epoch disagrees on owner of %q", key)
		}
	}
}

func TestDecodeEpochRejectsGarbage(t *testing.T) {
	for _, raw := range []string{"", "m 127.0.0.1:1 8\n", "v x\n", "v 1\nm onlyaddr\n", "v 1\nwhat\n"} {
		if _, err := DecodeEpoch([]byte(raw)); err == nil {
			t.Fatalf("DecodeEpoch(%q) accepted garbage", raw)
		}
	}
}

// The two Pacer tests drive what paces key migration: netsim's burst
// bucket and its Wait on the virtual clock.

func TestPacerPacesOnVirtualClock(t *testing.T) {
	clk := vclock.NewManual(time.Unix(0, 0))
	p := netsim.NewBurstBucket(1000, 1000) // 1000 B/s, 1000 B burst
	done := make(chan struct{})

	// The full burst passes without waiting.
	if !p.Wait(clk, done, 1000) {
		t.Fatal("burst-sized wait failed")
	}
	// The next 500 B must wait ~500ms of virtual time.
	ch := make(chan bool, 1)
	go func() { ch <- p.Wait(clk, done, 500) }()
	select {
	case <-ch:
		t.Fatal("wait returned without clock advance")
	case <-time.After(10 * time.Millisecond):
	}
	for clk.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Second)
	if ok := <-ch; !ok {
		t.Fatal("wait returned false")
	}
}

func TestPacerUnlimitedAndCancel(t *testing.T) {
	if !netsim.NewBurstBucket(0, 0).Wait(vclock.NewReal(), nil, 1<<30) {
		t.Fatal("unlimited pacer blocked")
	}
	clk := vclock.NewManual(time.Unix(0, 0))
	p := netsim.NewBurstBucket(10, 10)
	done := make(chan struct{})
	p.Wait(clk, done, 10) // drain the burst
	ch := make(chan bool, 1)
	go func() { ch <- p.Wait(clk, done, 1000) }()
	for clk.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(done)
	if ok := <-ch; ok {
		t.Fatal("cancelled wait returned true")
	}
}

func TestPlaneSingleFlight(t *testing.T) {
	p := NewPlane(0)
	if !p.TryStart("k") {
		t.Fatal("first claim refused")
	}
	if p.TryStart("k") {
		t.Fatal("second claim of in-flight key granted")
	}
	if p.InFlight() != 1 {
		t.Fatalf("InFlight = %d", p.InFlight())
	}
	p.Finish("k", false)
	if !p.TryStart("k") {
		t.Fatal("claim after incomplete finish refused")
	}
	p.Finish("k", true)
	if p.TryStart("k") {
		t.Fatal("claim after completed finish granted (done-memory broken)")
	}
	if p.InFlight() != 0 {
		t.Fatalf("InFlight = %d", p.InFlight())
	}
}

func TestPlaneConcurrentClaimsExactlyOne(t *testing.T) {
	p := NewPlane(0)
	const workers = 16
	var won sync.WaitGroup
	wins := make(chan int, workers)
	for w := 0; w < workers; w++ {
		won.Add(1)
		go func(w int) {
			defer won.Done()
			if p.TryStart("hot-key") {
				wins <- w
			}
		}(w)
	}
	won.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d workers won the claim, want exactly 1", n)
	}
}

func TestPlaneDoneMemoryBounded(t *testing.T) {
	p := NewPlane(4)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if !p.TryStart(k) {
			t.Fatalf("claim %s refused", k)
		}
		p.Finish(k, true)
	}
	if len(p.done) > 4 {
		t.Fatalf("done-memory grew to %d entries, cap 4", len(p.done))
	}
}
