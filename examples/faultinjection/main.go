// Fault injection: exercise the availability machinery of §4. The
// example stores objects, lets the delta-sync backup replicate every
// node, then reclaims instances in escalating waves and shows how the
// cache responds: EC reconstruction for <= p lost chunks, failover to
// peer replicas after backups, and RESET from the backing store when
// everything is gone.
//
// Run with: go run ./examples/faultinjection
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	infinicache "infinicache"
	"infinicache/internal/core"
)

func main() {
	cache, err := infinicache.New(
		infinicache.WithNodesPerProxy(8),
		infinicache.WithNodeMemoryMB(256),
		infinicache.WithShards(4, 2),
		infinicache.WithWarmupInterval(2*time.Second), // virtual
		infinicache.WithBackupInterval(4*time.Second), // virtual
		infinicache.WithTimeScale(0.01),               // 100x compression
		infinicache.WithRecovery(true),
		infinicache.WithSeed(13),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()

	client, err := cache.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	obj := make([]byte, 512<<10)
	rand.New(rand.NewSource(13)).Read(obj)
	if err := client.PutCtx(ctx, "precious", obj); err != nil {
		log.Fatal(err)
	}
	fmt.Println("stored 512 KB object as RS(4+2) chunks on 8 Lambda nodes")

	d := cache.Deployment()
	proxy := d.Proxies[0]

	// Wave 1: lose p = 2 nodes; erasure coding absorbs it.
	d.Platform.ForceReclaimMatching(core.NodeName(0, 0), -1)
	d.Platform.ForceReclaimMatching(core.NodeName(0, 1), -1)
	if _, err := client.GetCtx(ctx, "precious"); err != nil {
		log.Fatalf("wave 1: %v", err)
	}
	fmt.Printf("wave 1: reclaimed 2 nodes -> EC decode served the object (decodes=%d, recovered chunks=%d)\n",
		client.Stats().Decodes.Load(), client.Stats().Recoveries.Load())

	// Wait for backups so every node has a synced peer replica.
	fmt.Println("waiting for delta-sync backups to replicate every node...")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().BackupsDone.Load() < 8 {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("backup rounds completed: %d\n", proxy.Stats().BackupsDone.Load())

	// Wave 2: reclaim ONE replica of every node; peers take over.
	for i := 0; i < 8; i++ {
		d.Platform.ForceReclaimMatching(core.NodeName(0, i), 1)
	}
	if _, err := client.GetCtx(ctx, "precious"); err != nil {
		log.Fatalf("wave 2: %v", err)
	}
	fmt.Println("wave 2: reclaimed one replica of EVERY node -> peer replicas served the object")

	// Wave 3: scorched earth; only the backing store can help now.
	for i := 0; i < 8; i++ {
		d.Platform.ForceReclaimMatching(core.NodeName(0, i), -1)
	}
	_, err = client.GetCtx(ctx, "precious")
	fmt.Printf("wave 3: reclaimed everything -> Get says: %v\n", err)
	if !errors.Is(err, infinicache.ErrLost) && !errors.Is(err, infinicache.ErrMiss) {
		log.Fatal("expected a loss after total reclamation")
	}
	got, err := client.GetOrLoadCtx(ctx, "precious", func(context.Context) ([]byte, error) {
		fmt.Println("        RESET: reloading from the backing store and re-inserting")
		return obj, nil
	})
	if err != nil || len(got) != len(obj) {
		log.Fatalf("reset failed: %v", err)
	}
	if _, err := client.GetCtx(ctx, "precious"); err != nil {
		log.Fatalf("after reset: %v", err)
	}
	fmt.Printf("object cached again; losses observed=%d\n\n", client.Stats().Losses.Load())

	s := proxy.Stats()
	fmt.Printf("proxy stats: invokes=%d reinvokes=%d backups=%d done=%d swaps=%d chunkMisses=%d losses=%d\n",
		s.Invokes.Load(), s.Reinvokes.Load(), s.Backups.Load(), s.BackupsDone.Load(),
		s.BackupSwaps.Load(), s.ChunkMisses.Load(), s.ObjectLosses.Load())
}
