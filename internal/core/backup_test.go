package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"infinicache/internal/client"
	"infinicache/internal/vclock"
)

// The backup tests previously ran on a Scaled clock (TimeScale 0.01)
// and polled with wall-time sleeps, which made them sensitive to
// scheduling jitter on a 1-core container (billing cycles compressed to
// 1 ms of wall time sit at the edge of scheduler granularity). They now
// run on the injected vclock.Manual: virtual time advances only while
// some component is actually blocked on the clock (the pumper below),
// so round trips and chunk stores run at full real-time speed
// between steps and no virtual deadline can expire while real work is
// still in flight.

// backupDeployment builds a deployment on a hand-stepped clock plus a
// pumper goroutine that advances virtual time in small steps whenever a
// component is blocked on the clock. The pumper outlives the
// deployment's Close (cleanup LIFO order), so shutdown paths sleeping
// on the clock still wake.
func backupDeployment(t *testing.T, mutate func(*Config)) (*Deployment, *client.Client, *vclock.Manual) {
	t.Helper()
	clk := vclock.NewManual(time.Unix(0, 0))
	t.Cleanup(clk.Pump())

	cfg := Config{
		Proxies:         1,
		NodesPerProxy:   6,
		NodeMemoryMB:    256,
		DataShards:      4,
		ParityShards:    2,
		Clock:           clk,
		WarmupInterval:  3 * time.Second, // virtual
		BackupInterval:  6 * time.Second, // virtual
		ColdStartDelay:  50 * time.Millisecond,
		WarmInvokeDelay: 10 * time.Millisecond,
		Seed:            1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return d, c, clk
}

// waitFor polls cond while the pumper advances virtual time; the
// wall-clock deadline is only a safety net against a genuinely hung
// deployment.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBackupCreatesPeerReplicas drives the full Figure 10 protocol: after
// T_bak, warm-up invocations trigger delta-sync backups that spawn peer
// replica instances holding copies of the cached chunks.
func TestBackupCreatesPeerReplicas(t *testing.T) {
	d, c, _ := backupDeployment(t, nil)
	obj := randObj(42, 512<<10)
	if err := c.PutCtx(ctx, "backed-up", obj); err != nil {
		t.Fatal(err)
	}

	// Backups fire once T_bak of virtual time has elapsed past the first
	// post-data invocation; the pumper supplies that time on demand.
	waitFor(t, 60*time.Second, "backup completions", func() bool {
		return d.Proxies[0].Stats().BackupsDone.Load() >= 6
	})

	// Every node that holds a chunk should now have a peer replica.
	replicated := 0
	for i := 0; i < 6; i++ {
		if d.Platform.InstanceCount(NodeName(0, i)) >= 2 {
			replicated++
		}
	}
	if replicated < 4 {
		t.Fatalf("only %d/6 nodes have peer replicas after backups", replicated)
	}
}

// TestBackupSurvivesSourceReclaim is the point of the whole mechanism:
// after a backup, reclaiming one replica of every node must not lose the
// object, even with zero parity headroom left.
func TestBackupSurvivesSourceReclaim(t *testing.T) {
	d, c, _ := backupDeployment(t, nil)
	obj := randObj(43, 512<<10)
	if err := c.PutCtx(ctx, "durable", obj); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "completed backups on all nodes", func() bool {
		return d.Proxies[0].Stats().BackupsDone.Load() >= 6
	})

	// Reclaim the OLDEST instance (the original source) of every node:
	// without backup this would destroy all 6 chunks (> p = 2).
	for i := 0; i < 6; i++ {
		if n := d.Platform.ForceReclaimMatching(NodeName(0, i), 1); n != 1 {
			t.Fatalf("node %d: reclaimed %d instances", i, n)
		}
	}

	got, err := c.GetCtx(ctx, "durable")
	if err != nil {
		t.Fatalf("get after reclaiming all sources: %v", err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted after failover to peer replicas")
	}
}

// TestBackupDeltaSync checks that a second backup round only moves the
// delta: the destination replica keeps chunks from round one and the
// subsequent rounds complete quickly because nothing new must move.
func TestBackupDeltaSync(t *testing.T) {
	d, c, _ := backupDeployment(t, func(cfg *Config) {
		cfg.WarmupInterval = 2 * time.Second
		cfg.BackupInterval = 4 * time.Second
	})
	if err := c.PutCtx(ctx, "delta-1", randObj(1, 128<<10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "first backup wave", func() bool {
		return d.Proxies[0].Stats().BackupsDone.Load() >= 6
	})
	// Insert more data, then let further backup rounds replicate it.
	obj2 := randObj(2, 128<<10)
	if err := c.PutCtx(ctx, "delta-2", obj2); err != nil {
		t.Fatal(err)
	}
	first := d.Proxies[0].Stats().BackupsDone.Load()
	waitFor(t, 60*time.Second, "second backup wave", func() bool {
		return d.Proxies[0].Stats().BackupsDone.Load() >= first+6
	})
	// Reclaim one replica everywhere; both objects must survive.
	for i := 0; i < 6; i++ {
		d.Platform.ForceReclaimMatching(NodeName(0, i), 1)
	}
	for _, key := range []string{"delta-1", "delta-2"} {
		if _, err := c.GetCtx(ctx, key); err != nil {
			t.Fatalf("get %s after reclaim: %v", key, err)
		}
	}
}

// TestServingDuringBackup verifies availability is not interrupted while
// a backup is in flight (the §4.2 "high availability" property): GETs
// issued continuously across several virtual backup rounds keep
// succeeding. The serving window is measured on the injected clock, not
// the wall clock, so it always spans the same amount of backup activity
// regardless of how fast the container runs.
func TestServingDuringBackup(t *testing.T) {
	d, c, clk := backupDeployment(t, func(cfg *Config) {
		cfg.WarmupInterval = time.Second
		cfg.BackupInterval = 2 * time.Second
		// The window spans ~30 backup rounds, and each round carries a
		// small chance of a chunk failing to migrate (λd answers MISS
		// and the chunk is marked lost). Availability over that much
		// churn is exactly what client-side EC recovery exists for
		// (§5.2): degraded GETs reconstruct and re-insert lost chunks,
		// so per-round attrition cannot accumulate past parity.
		cfg.EnableRecovery = true
	})
	objs := map[string][]byte{}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("live-%d", i)
		objs[key] = randObj(int64(i), 256<<10)
		if err := c.PutCtx(ctx, key, objs[key]); err != nil {
			t.Fatal(err)
		}
	}
	start := clk.Now()
	gets := 0
	for clk.Since(start) < 60*time.Second { // virtual; spans many rounds
		for key, want := range objs {
			got, err := c.GetCtx(ctx, key)
			if err != nil {
				t.Fatalf("get %s during backup era: %v", key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("object %s corrupted during backup era", key)
			}
			gets++
		}
		// Idle between request rounds in VIRTUAL time: nodes must cross
		// billing-cycle boundaries (and return) for warm-up invocations
		// to piggy-back the T_bak backup trigger — continuous traffic
		// would keep every instance resident forever.
		clk.Sleep(500 * time.Millisecond)
	}
	if d.Proxies[0].Stats().Backups.Load() == 0 {
		t.Fatal("no backups happened during the serving window")
	}
	t.Logf("served %d GETs across %d backup rounds", gets, d.Proxies[0].Stats().Backups.Load())
}
