// Package chaos is the event plane of a live run: a seeded,
// virtual-clock-driven scheduler that replays a declarative schedule of
// what happens to a running deployment — provider faults and membership
// change alike. Each event fires at a fixed virtual offset from Run
// start, so a fixed (schedule, seed, clock) triple reproduces the same
// event sequence on every run — the property the chaos soak test and
// the CI chaos and churn smokes pin.
//
// Membership events, which are not faults (Report.Classes skips them):
//
//   - join         adds N proxies, one epoch each.
//   - leave        drains up to N proxies out, newest member first and
//     never the last one standing.
//
// Fault classes and how they land:
//
//   - reclaim      provider reclaim storm — ForceReclaimMatching on the
//     platform kills up to N warm instances whose function name matches
//     a pattern (memory gone; the next invoke cold-starts empty).
//   - crashproxy   severs every established connection on one proxy
//     (clients and node links), modelling a proxy crash+restart with
//     its in-memory state intact.
//   - latency      per-path delivery delay on matching links.
//   - corrupt      bit-flips a payload byte on a fraction of writes.
//   - rot          bit-flips a byte of reads on matching links —
//     at-rest corruption as seen from the wire.
//   - hangup       drops the connection mid-write on a fraction of
//     writes.
//   - refuse       matching dials fail outright (black-holed peer).
//
// The link-level classes (latency..refuse) are applied through a
// netsim.Faults engine shared with the platform's node links and the
// client dialer; reclaim, crashproxy, join and leave go through the
// narrow Platform and Cluster interfaces below, so this package imports
// neither lambdaemu nor core and sits below both.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"infinicache/internal/netsim"
	"infinicache/internal/vclock"
)

// Platform is the slice of the Lambda emulator the scheduler needs.
// *lambdaemu.Platform satisfies it.
type Platform interface {
	// ForceReclaimMatching reclaims up to n warm instances across
	// functions whose name matches pattern (n < 0 means all); it
	// returns the number actually reclaimed.
	ForceReclaimMatching(pattern string, n int) int
}

// Cluster is the slice of the deployment the scheduler needs.
// *core.Deployment satisfies it.
type Cluster interface {
	// SeverProxyConns closes every established connection on proxy i,
	// returning how many were severed.
	SeverProxyConns(i int) int
	NumProxies() int
	// JoinProxies adds n proxies; LeaveProxies drains n, newest first
	// (the runner never asks it for the last one). Each returns how
	// many changed.
	JoinProxies(n int) (int, error)
	LeaveProxies(n int) (int, error)
}

// Event is one scheduled fault or membership change.
type Event struct {
	At      time.Duration // virtual offset from Run start
	Kind    string        // reclaim | crashproxy | latency | corrupt | rot | hangup | refuse | join | leave
	Pattern string        // link tag / function-name pattern ("*", exact, or trailing-* prefix)
	N       int           // reclaim: max instances (-1 = all); crashproxy: proxy index; join/leave: proxies
	Rate    float64       // corrupt/rot/hangup: per-write/read probability
	Extra   time.Duration // latency: added delay
	Window  time.Duration // link rules: lifetime from injection (0 = rest of run)
}

// Schedule is a parsed event schedule, sorted by offset.
type Schedule struct {
	Events []Event
}

// Faulting reports whether the schedule holds an event other than join
// and leave — whether the run it drives is faulted at all. Churning
// reports whether it holds a join or a leave.
func (s *Schedule) Faulting() bool { return s.holds(false) }
func (s *Schedule) Churning() bool { return s.holds(true) }

func (s *Schedule) holds(membership bool) bool {
	for _, ev := range s.Events {
		if (ev.Kind == "join" || ev.Kind == "leave") == membership {
			return true
		}
	}
	return false
}

// Parse builds a Schedule from its comma-separated spec string. Each
// event is colon-separated fields starting with a virtual offset:
//
//	OFFSET:reclaim:PATTERN:N         N an integer or "all"
//	OFFSET:crashproxy:IDX
//	OFFSET:latency:PATTERN:EXTRA[:WINDOW]
//	OFFSET:corrupt:PATTERN:RATE[:WINDOW]
//	OFFSET:rot:PATTERN:RATE[:WINDOW]
//	OFFSET:hangup:PATTERN:RATE[:WINDOW]
//	OFFSET:refuse:PATTERN[:WINDOW]
//	OFFSET:join:N                    N >= 1
//	OFFSET:leave:N                   N >= 1
//
// Durations use Go syntax ("250ms", "2s"); rates are in [0,1]. Link
// tags are node function names ("p0-node3") on platform links and
// "client" on client↔proxy links. Examples:
//
//	"0s:corrupt:*:0.02:2s,10ms:reclaim:p0-node0:all,40ms:crashproxy:0"
//	"30ms:join:1,2s:leave:1"
func Parse(spec string) (*Schedule, error) {
	var events []Event
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		ev, err := parseEvent(raw)
		if err != nil {
			return nil, fmt.Errorf("chaos: event %q: %w", raw, err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("chaos: empty schedule %q", spec)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Schedule{Events: events}, nil
}

func parseEvent(raw string) (Event, error) {
	parts := strings.Split(raw, ":")
	if len(parts) < 2 {
		return Event{}, fmt.Errorf("want OFFSET:KIND[:...]")
	}
	at, err := time.ParseDuration(parts[0])
	if err != nil || at < 0 {
		return Event{}, fmt.Errorf("bad offset %q", parts[0])
	}
	ev := Event{At: at, Kind: parts[1]}
	args := parts[2:]
	switch ev.Kind {
	case "reclaim":
		if len(args) != 2 {
			return Event{}, fmt.Errorf("want reclaim:PATTERN:N")
		}
		ev.Pattern = args[0]
		if args[1] == "all" {
			ev.N = -1
		} else if ev.N, err = strconv.Atoi(args[1]); err != nil || ev.N <= 0 {
			return Event{}, fmt.Errorf("bad count %q", args[1])
		}
	case "crashproxy":
		if len(args) != 1 {
			return Event{}, fmt.Errorf("want crashproxy:IDX")
		}
		if ev.N, err = strconv.Atoi(args[0]); err != nil || ev.N < 0 {
			return Event{}, fmt.Errorf("bad proxy index %q", args[0])
		}
	case "join", "leave":
		if len(args) != 1 {
			return Event{}, fmt.Errorf("want %s:N", ev.Kind)
		}
		if ev.N, err = strconv.Atoi(args[0]); err != nil || ev.N <= 0 {
			return Event{}, fmt.Errorf("bad proxy count %q", args[0])
		}
	case netsim.FaultLatency:
		if len(args) != 2 && len(args) != 3 {
			return Event{}, fmt.Errorf("want latency:PATTERN:EXTRA[:WINDOW]")
		}
		ev.Pattern = args[0]
		if ev.Extra, err = time.ParseDuration(args[1]); err != nil || ev.Extra <= 0 {
			return Event{}, fmt.Errorf("bad delay %q", args[1])
		}
		if err := parseWindow(args[2:], &ev); err != nil {
			return Event{}, err
		}
	case netsim.FaultCorrupt, netsim.FaultRot, netsim.FaultHangup:
		if len(args) != 2 && len(args) != 3 {
			return Event{}, fmt.Errorf("want %s:PATTERN:RATE[:WINDOW]", ev.Kind)
		}
		ev.Pattern = args[0]
		if ev.Rate, err = strconv.ParseFloat(args[1], 64); err != nil || ev.Rate <= 0 || ev.Rate > 1 {
			return Event{}, fmt.Errorf("bad rate %q", args[1])
		}
		if err := parseWindow(args[2:], &ev); err != nil {
			return Event{}, err
		}
	case netsim.FaultRefuse:
		if len(args) != 1 && len(args) != 2 {
			return Event{}, fmt.Errorf("want refuse:PATTERN[:WINDOW]")
		}
		ev.Pattern = args[0]
		ev.Rate = 1
		if err := parseWindow(args[1:], &ev); err != nil {
			return Event{}, err
		}
	default:
		return Event{}, fmt.Errorf("unknown kind %q", ev.Kind)
	}
	return ev, nil
}

func parseWindow(rest []string, ev *Event) error {
	if len(rest) == 0 {
		return nil
	}
	w, err := time.ParseDuration(rest[0])
	if err != nil || w <= 0 {
		return fmt.Errorf("bad window %q", rest[0])
	}
	ev.Window = w
	return nil
}

// Fired records one applied event for the report.
type Fired struct {
	At     time.Duration // virtual offset the event was applied at
	Event  Event
	Detail string // e.g. "5 instances reclaimed", "3 conns severed"
}

// Report summarises a finished (or aborted) run.
type Report struct {
	Fired []Fired
	// Reclaimed/Severed count instances killed and connections cut by
	// the direct-action events; Injected counts link-level faults
	// actually applied by the netsim engine, by kind.
	Reclaimed int64
	Severed   int64
	Injected  map[string]int64
}

// Classes returns how many distinct fault classes both appeared in the
// schedule and demonstrably landed (reclaimed an instance, severed a
// connection, or injected at least one link fault). The CI chaos smoke
// asserts this to prove every scheduled class actually fired.
func (r Report) Classes() int {
	seen := map[string]bool{}
	for _, f := range r.Fired {
		switch f.Kind() {
		case "join", "leave":
			// Membership change, not a fault class.
		case "reclaim":
			seen["reclaim"] = r.Reclaimed > 0 || seen["reclaim"]
		case "crashproxy":
			seen["crashproxy"] = r.Severed > 0 || seen["crashproxy"]
		default:
			seen[f.Kind()] = r.Injected[f.Kind()] > 0 || seen[f.Kind()]
		}
	}
	n := 0
	for _, landed := range seen {
		if landed {
			n++
		}
	}
	return n
}

// Kind returns the fired event's kind.
func (f Fired) Kind() string { return f.Event.Kind }

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d events fired, %d instances reclaimed, %d conns severed\n",
		len(r.Fired), r.Reclaimed, r.Severed)
	for _, f := range r.Fired {
		fmt.Fprintf(&b, "  t=+%-8v %-10s %s\n", f.At.Round(time.Millisecond), f.Event.Kind, f.Detail)
	}
	if len(r.Injected) > 0 {
		kinds := make([]string, 0, len(r.Injected))
		for k := range r.Injected {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("  link faults injected:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, r.Injected[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner applies a Schedule against a deployment. Faults may be nil
// only if the schedule has no link-level events; Platform and Cluster
// may be nil if it has no reclaim / crashproxy, join, leave events
// (Start verifies all three).
type Runner struct {
	sched    *Schedule
	clock    vclock.Clock
	faults   *netsim.Faults
	platform Platform
	cluster  Cluster

	mu        sync.Mutex
	fired     []Fired
	reclaimed int64
	severed   int64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New builds a Runner; call Start to begin injecting.
func New(sched *Schedule, clock vclock.Clock, faults *netsim.Faults, platform Platform, cluster Cluster) *Runner {
	return &Runner{
		sched:    sched,
		clock:    clock,
		faults:   faults,
		platform: platform,
		cluster:  cluster,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the scheduler goroutine. Events fire in offset order
// at their virtual times; Stop (or schedule exhaustion) ends the run.
func (r *Runner) Start() error {
	for _, ev := range r.sched.Events {
		switch ev.Kind {
		case "reclaim":
			if r.platform == nil {
				return fmt.Errorf("chaos: schedule has reclaim events but no platform")
			}
		case "crashproxy", "join", "leave":
			if r.cluster == nil {
				return fmt.Errorf("chaos: schedule has %s events but no cluster", ev.Kind)
			}
		default:
			if r.faults == nil {
				return fmt.Errorf("chaos: schedule has %s events but no fault engine", ev.Kind)
			}
		}
	}
	go r.run()
	return nil
}

// Stop aborts the run (idempotent) and waits for the scheduler
// goroutine to exit.
func (r *Runner) Stop() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// Wait blocks until every scheduled event has fired (or Stop aborted
// the run).
func (r *Runner) Wait() { <-r.done }

// Report snapshots what has fired so far. Stable once Wait/Stop
// returned.
func (r *Runner) Report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Fired:     append([]Fired(nil), r.fired...),
		Reclaimed: r.reclaimed,
		Severed:   r.severed,
	}
	if r.faults != nil {
		rep.Injected = r.faults.Counts()
	}
	return rep
}

func (r *Runner) run() {
	defer close(r.done)
	start := r.clock.Now()
	for _, ev := range r.sched.Events {
		if d := ev.At - r.clock.Now().Sub(start); d > 0 {
			select {
			case <-r.clock.After(d):
			case <-r.stop:
				return
			}
		}
		select {
		case <-r.stop:
			return
		default:
		}
		r.apply(ev, r.clock.Now().Sub(start))
	}
}

func (r *Runner) apply(ev Event, at time.Duration) {
	var detail string
	var reclaimed, severed int64
	switch ev.Kind {
	case "reclaim":
		n := r.platform.ForceReclaimMatching(ev.Pattern, ev.N)
		reclaimed = int64(n)
		detail = fmt.Sprintf("%s: %d instances reclaimed", ev.Pattern, n)
	case "crashproxy":
		n := r.cluster.SeverProxyConns(ev.N)
		severed = int64(n)
		detail = fmt.Sprintf("proxy %d: %d conns severed", ev.N, n)
	case "join", "leave":
		var n int
		var err error
		verb := "joined"
		if ev.Kind == "join" {
			n, err = r.cluster.JoinProxies(ev.N)
		} else {
			// Never the last member: a leave asks for all but one at most.
			n, err = r.cluster.LeaveProxies(min(ev.N, r.cluster.NumProxies()-1))
			verb = "left"
		}
		detail = fmt.Sprintf("%d of %d proxies %s, %d members", n, ev.N, verb, r.cluster.NumProxies())
		if err != nil {
			detail += ": " + err.Error()
		}
	case netsim.FaultLatency:
		r.faults.Add(ev.Pattern, ev.Kind, 1, ev.Extra, ev.Window)
		detail = fmt.Sprintf("%s: +%v%s", ev.Pattern, ev.Extra, windowSuffix(ev))
	default: // corrupt | rot | hangup | refuse
		r.faults.Add(ev.Pattern, ev.Kind, ev.Rate, 0, ev.Window)
		detail = fmt.Sprintf("%s: rate %g%s", ev.Pattern, ev.Rate, windowSuffix(ev))
	}
	r.mu.Lock()
	r.fired = append(r.fired, Fired{At: at, Event: ev, Detail: detail})
	r.reclaimed += reclaimed
	r.severed += severed
	r.mu.Unlock()
}

func windowSuffix(ev Event) string {
	if ev.Window <= 0 {
		return ""
	}
	return fmt.Sprintf(" for %v", ev.Window)
}
