package core

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/protocol"
	"infinicache/internal/vclock"
)

// placement_test.go pins where the proxy puts a chunk SET. The writer's
// node is a hint: when it names a function that has returned at a
// billing boundary, the chunk goes to a running one instead, so a PUT
// never waits out a warm invoke while d+p nodes that could take it run
// idle.

// aimSets wraps a client's proxy connection so that every chunk SET on
// it names the node (*aim)[idx] for chunk idx: Args[0] of a SET is the
// chunk index and Args[2] the writer's node.
func aimSets(raw net.Conn, aim *atomic.Pointer[[]int]) net.Conn {
	near, far := net.Pipe()
	go func() {
		defer raw.Close()
		for {
			m, err := protocol.Read(far)
			if err != nil {
				return
			}
			if nodes := aim.Load(); m.Type == protocol.TSet && nodes != nil {
				m.Args[2] = int64((*nodes)[m.Args[0]])
			}
			if protocol.Write(raw, m) != nil {
				return
			}
		}
	}()
	go func() {
		io.Copy(far, raw)
		far.Close()
	}()
	return near
}

// drive advances clk a millisecond at a time while anything waits on
// it, until cond holds.
func drive(t *testing.T, clk *vclock.Manual, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		if clk.Waiters() > 0 {
			clk.Advance(time.Millisecond)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPutAvoidsSleepingNodes: with twice d+p nodes, d+p of them running
// and the other d+p returned at a billing boundary, a PUT whose hints
// name only returned nodes invokes nothing: its chunks land on d+p
// distinct running nodes. With every node returned, a PUT's chunks land
// on its hints.
func TestPutAvoidsSleepingNodes(t *testing.T) {
	clk := vclock.NewManual(time.Unix(0, 0))
	// Virtual time moves only when drive moves it, so a running node
	// stays up until the test lets its billing cycle end; shutdown paths
	// that sleep on the clock get a pump.
	var stopPump func()
	t.Cleanup(func() { stopPump() })
	d, _ := testDeployment(t, func(cfg *Config) {
		cfg.NodesPerProxy = 12 // 2(d+p)
		cfg.Clock = clk
		cfg.WarmInvokeDelay = 13 * time.Millisecond
	})
	var aim atomic.Pointer[[]int]
	c, err := d.NewClient(func(cfg *client.Config) {
		dial := cfg.Dial
		cfg.Dial = func(addr string) (net.Conn, error) {
			raw, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return aimSets(raw, &aim), nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	t.Cleanup(func() { stopPump = clk.Pump() })

	st, ledger := d.Proxies[0].Stats(), d.Platform.Ledger()
	obj := randObj(7, 64<<10)
	// put writes key with its chunks hinted at nodes; with wake set, it
	// holds the clock until all d+p hinted nodes are being invoked, so
	// every chunk is placed while they are all still asleep.
	put := func(key string, nodes []int, wake bool) {
		t.Helper()
		aim.Store(&nodes)
		invokes := st.Invokes.Load()
		done := make(chan error, 1)
		go func() { done <- c.PutCtx(ctx, key, obj) }()
		if wake {
			for deadline := time.Now().Add(10 * time.Second); st.Invokes.Load() < invokes+int64(len(nodes)); {
				if time.Now().After(deadline) {
					t.Fatalf("PUT %s: %d of %d hinted nodes invoked", key, st.Invokes.Load()-invokes, len(nodes))
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		var perr error
		finished := false
		drive(t, clk, "PUT "+key, func() bool {
			select {
			case perr = <-done:
				finished = true
			default:
			}
			return finished
		})
		if perr != nil {
			t.Fatalf("PUT %s: %v", key, perr)
		}
	}
	// settle lets every running node return: each started invocation
	// has been billed.
	settle := func(what string) {
		t.Helper()
		drive(t, clk, what, func() bool { return ledger.Total().Invocations == st.Invokes.Load() })
		// The BYE that ended each invocation reaches the proxy's
		// dispatcher on its own goroutine.
		time.Sleep(20 * time.Millisecond)
	}
	invoked := func(since map[string]int64) []int {
		var nodes []int
		for n := 0; n < 12; n++ {
			if ledger.ForFunction(NodeName(0, n)).Invocations > since[NodeName(0, n)] {
				nodes = append(nodes, n)
			}
		}
		return nodes
	}
	snapshot := func() map[string]int64 {
		m := make(map[string]int64)
		for n := 0; n < 12; n++ {
			m[NodeName(0, n)] = ledger.ForFunction(NodeName(0, n)).Invocations
		}
		return m
	}

	asleep, awake := []int{6, 7, 8, 9, 10, 11}, []int{0, 1, 2, 3, 4, 5}
	put("returned", asleep, true)
	settle("nodes 6-11 to return")
	put("running", awake, true) // nodes 0-5 stay up for this cycle

	invokes, billed, replaced := st.Invokes.Load(), ledger.Total().Invocations, st.Replaced.Load()
	put("k", asleep, false)
	if n := st.Invokes.Load() - invokes; n != 0 {
		t.Errorf("the PUT invoked %d nodes, want 0: its chunks waited on returned nodes", n)
	}
	if n := st.Replaced.Load() - replaced; n != 6 {
		t.Errorf("Replaced grew by %d, want 6 (every hint named a returned node)", n)
	}
	settle("every node to return")
	if n := ledger.Total().Invocations - billed; n != 6 {
		t.Errorf("the platform billed %d invocations after the PUT, want the 6 it found running", n)
	}

	// A GET fetches all d+p chunks and so invokes exactly the nodes
	// holding them.
	before := snapshot()
	done := make(chan error, 1)
	go func() { _, err := c.GetCtx(ctx, "k"); done <- err }()
	var gerr error
	got := false
	drive(t, clk, "GET k", func() bool {
		select {
		case gerr = <-done:
			got = true
		default:
		}
		return got
	})
	if gerr != nil {
		t.Fatalf("GET k: %v", gerr)
	}
	settle("the GET's nodes to return")
	if nodes := invoked(before); fmt.Sprint(nodes) != fmt.Sprint(awake) {
		t.Errorf("k's chunks live on nodes %v, want one on each node that was running, %v", nodes, awake)
	}

	// Every node has returned: nothing is running to move a chunk to, so
	// each lands on its hint.
	hints := []int{1, 3, 5, 7, 9, 11}
	before, replaced = snapshot(), st.Replaced.Load()
	put("all-asleep", hints, true)
	settle("the all-asleep PUT's nodes to return")
	nodes := invoked(before)
	sort.Ints(nodes)
	if fmt.Sprint(nodes) != fmt.Sprint(hints) {
		t.Errorf("the PUT invoked nodes %v, want its hints %v", nodes, hints)
	}
	if n := st.Replaced.Load() - replaced; n != 0 {
		t.Errorf("Replaced grew by %d with every node asleep, want 0", n)
	}
}
