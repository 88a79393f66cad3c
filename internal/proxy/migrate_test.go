package proxy

import (
	"testing"

	"infinicache/internal/cluster"
	"infinicache/internal/netsim"
)

// TestDoneMarkerBeforeEpochInstall: the deployment installs an epoch on
// its proxies one after another, so a peer that got it first and has
// nothing to stream can deliver its done marker before this proxy has
// installed the same epoch. The marker must still close the inbound
// window it was sent for once the install arrives.
func TestDoneMarkerBeforeEpochInstall(t *testing.T) {
	nw := netsim.NewNetwork() // peers are names nobody listens on: dials are refused at once
	p, err := New(Config{
		Invoker:      invokerFunc(func(string, []byte) error { return nil }),
		Nodes:        []string{"test-node"},
		NodeMemoryMB: 128,
		ListenAddr:   "proxy-0",
		Listen:       nw.Listen,
		Dial:         nw.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ms := cluster.NewMembership()
	old := []cluster.Member{{Addr: "proxy-0", PoolSize: 1}, {Addr: "proxy-1", PoolSize: 1}}
	e1 := ms.Publish(old)
	p.SetEpoch(nil, e1)
	e2 := ms.Publish(append(old, cluster.Member{Addr: "proxy-2", PoolSize: 1}))

	p.markMigrationDone(e2.Version(), "proxy-1")
	p.SetEpoch(e1, e2)
	waitUntil(t, "the inbound window to close on the early done marker", func() bool { return p.MigrationsPending() == 0 })
	if _, _, fallback := p.fallbackOwner("any-key"); fallback {
		t.Fatal("inbound window still open after every source reported done")
	}
}
