package core

import (
	"testing"
	"time"

	"infinicache/internal/lambdaemu"
)

// These tests pin down the anticipatory billed-duration control of §3.3:
// an invocation that serves little traffic must be billed exactly one
// 100 ms cycle (the runtime returns 2-10 ms before the boundary), and
// sustained traffic extends the lifetime cycle by cycle instead of
// paying a new invocation each time.

func TestWarmupBilledExactlyOneCycle(t *testing.T) {
	// This is the strictest billing assertion in the suite (exactly one
	// cycle), so it runs on the injected Manual clock like the backup
	// tests: the node's return happens a fixed amount of VIRTUAL time
	// before the boundary, and real scheduling noise (worst under
	// -race) can no longer push the billed duration across it.
	d, c, _ := backupDeployment(t, func(cfg *Config) {
		cfg.WarmupInterval = 0 // warm-ups fired manually below
		cfg.BackupInterval = 0
		cfg.BufferTime = 30 * time.Millisecond
	})
	_ = c
	// A warm-up invocation serves zero requests: the node must return
	// within its first billing cycle.
	d.Proxies[0].Warmup()
	deadline := time.Now().Add(10 * time.Second)
	var usage lambdaemu.Usage
	for time.Now().Before(deadline) {
		usage = d.Platform.Ledger().Total()
		if usage.Invocations >= 6 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if usage.Invocations < 6 {
		t.Fatalf("only %d invocations landed", usage.Invocations)
	}
	perInvocation := usage.BilledDuration / time.Duration(usage.Invocations)
	if perInvocation != 100*time.Millisecond {
		t.Fatalf("billed %v per warm-up, want exactly one 100ms cycle", perInvocation)
	}
}

func TestIdleGetBilledOneCycle(t *testing.T) {
	d, c := testDeployment(t, func(cfg *Config) {
		cfg.TimeScale = 0.1
		cfg.NodesPerProxy = 6
		cfg.DataShards = 4
		cfg.ParityShards = 2
	})
	obj := randObj(1, 64<<10)
	if err := c.PutCtx(ctx, "single", obj); err != nil {
		t.Fatal(err)
	}
	d.Platform.Ledger().Reset()
	if _, err := c.GetCtx(ctx, "single"); err != nil {
		t.Fatal(err)
	}
	// Allow the post-GET serve loops to expire (one cycle = 10ms wall).
	deadline := time.Now().Add(10 * time.Second)
	var usage lambdaemu.Usage
	for time.Now().Before(deadline) {
		usage = d.Platform.Ledger().Total()
		if usage.Invocations >= 6 && usage.BilledDuration > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Each chunk node serves one tiny request and must still return
	// within 1-2 cycles (the timer realigns after serving).
	perInvocation := usage.BilledDuration / time.Duration(usage.Invocations)
	if perInvocation > 300*time.Millisecond {
		t.Fatalf("billed %v per single-request invocation; duration control broken", perInvocation)
	}
}

func TestSustainedTrafficExtendsLifetime(t *testing.T) {
	d, c := testDeployment(t, func(cfg *Config) {
		cfg.TimeScale = 0.1
		cfg.NodesPerProxy = 6
		cfg.DataShards = 4
		cfg.ParityShards = 2
	})
	obj := randObj(2, 64<<10)
	if err := c.PutCtx(ctx, "hot", obj); err != nil {
		t.Fatal(err)
	}
	d.Platform.Ledger().Reset()
	// Fire GETs back to back: nodes should stay alive (lifetime
	// extension) rather than bouncing through invoke cycles.
	const gets = 20
	for i := 0; i < gets; i++ {
		if _, err := c.GetCtx(ctx, "hot"); err != nil {
			t.Fatal(err)
		}
	}
	usage := d.Platform.Ledger().Total()
	// 6 nodes x 20 rounds would be 120 invocations without lifetime
	// extension; with it, each node serves many requests per invocation.
	if usage.Invocations > 60 {
		t.Fatalf("%d invocations for %d GETs: lifetime extension not working", usage.Invocations, gets)
	}
	t.Logf("%d GETs -> %d invocations, %.1f GB-s billed", gets, usage.Invocations, usage.GBSeconds)
}
