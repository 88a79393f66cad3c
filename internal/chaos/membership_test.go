package chaos

import (
	"fmt"
	"testing"

	"infinicache/internal/vclock"
)

// The fault tests' fakeCluster has a fixed membership; it joins and
// leaves nothing.
func (f *fakeCluster) JoinProxies(n int) (int, error)  { return 0, nil }
func (f *fakeCluster) LeaveProxies(n int) (int, error) { return 0, nil }

// poolCluster is a fakeCluster whose membership moves: it counts its
// members and logs every join and leave the runner asks of it.
type poolCluster struct {
	fakeCluster
	members int
	asked   []string
}

func (c *poolCluster) NumProxies() int { return c.members }

func (c *poolCluster) JoinProxies(n int) (int, error) {
	c.asked = append(c.asked, fmt.Sprintf("join %d", n))
	c.members += n
	return n, nil
}

func (c *poolCluster) LeaveProxies(n int) (int, error) {
	c.asked = append(c.asked, fmt.Sprintf("leave %d", n))
	if n >= c.members {
		return 0, fmt.Errorf("asked to drain %d of %d members", n, c.members)
	}
	c.members -= n
	return n, nil
}

// TestRunnerMembershipEvents: join and leave fire in offset order beside
// a fault, are reported as fired, are not counted as fault classes, and
// a leave never drains the last proxy however many it names.
func TestRunnerMembershipEvents(t *testing.T) {
	clk := vclock.NewScaled(0.01)
	sched, err := Parse("6ms:leave:5,0s:join:2,2ms:crashproxy:0,4ms:leave:1")
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Churning() || !sched.Faulting() {
		t.Fatalf("Churning %v, Faulting %v: want both", sched.Churning(), sched.Faulting())
	}
	cl := &poolCluster{members: 1}
	r := New(sched, clk, nil, nil, cl)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Wait()

	rep := r.Report()
	var kinds []string
	for _, f := range rep.Fired {
		kinds = append(kinds, f.Kind())
	}
	if want := []string{"join", "crashproxy", "leave", "leave"}; fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v:\n%s", kinds, want, rep)
	}
	if want := "[join 2 leave 1 leave 1]"; fmt.Sprint(cl.asked) != want {
		t.Errorf("cluster asked %v, want %s", cl.asked, want)
	}
	if cl.members != 1 {
		t.Errorf("%d members after the schedule, want 1: the last proxy never leaves", cl.members)
	}
	if got := rep.Classes(); got != 1 {
		t.Errorf("Classes() = %d, want 1 (crashproxy only; join and leave are not faults)\n%s", got, rep)
	}
	for _, spec := range []string{"0s:join:1", "1s:leave:2,0s:join:1"} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if s.Faulting() || !s.Churning() {
			t.Errorf("%q: Faulting %v, Churning %v; want a churn-only schedule", spec, s.Faulting(), s.Churning())
		}
	}
}
