package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
)

// TestNudgedReadsKeepLinkOrder is the saturating regression for the
// CLOCKREQ-nudge / FIFO race: linearizable reads (which nudge whenever
// they park) under closed-loop write load over loopback TCP, at one
// group and at four. Every message a replica emits now leaves through
// one ordered outbox, so on a lossless network no receiver may prove a
// link gap, no epoch may move and no write may die with
// ErrReconfigured; a replica must also never execute a command twice.
func TestNudgedReadsKeepLinkOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	for _, groups := range []int{1, 4} {
		t.Run(fmt.Sprintf("G=%d", groups), func(t *testing.T) { nudgedReadsUnderLoad(t, groups) })
	}
}

func nudgedReadsUnderLoad(t *testing.T, groups int) {
	const n, clientsPerGroup = 3, 6
	c, err := newCluster(clusterSpec{
		replicas: n, groups: groups, tcp: true,
		core: core.Options{ClockTimeInterval: saturationDelta},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()

	var writes, reads, reconfigured atomic.Uint64
	// ErrReconfigured is counted rather than fatal, so one forced rejoin
	// does not end the run before the others show.
	counted := func(err error) error {
		if errors.Is(err, node.ErrReconfigured) {
			reconfigured.Add(1)
			return nil
		}
		return err
	}
	ctx, tbl := context.Background(), c.table()
	load := newClosedLoop()
	for _, r := range c.live() {
		for cli := 0; cli < clientsPerGroup*groups; cli++ {
			key, _ := clientKey(tbl, cli)
			host := r.host
			put, get := kvstore.Put(key, make([]byte, 100)), kvstore.Get(key)
			load.client(&writes, func() error {
				fut, err := host.ProposeKey(ctx, key, put)
				if err == nil {
					_, err = fut.Result()
				}
				return counted(err)
			})
			load.client(&reads, func() error {
				_, err := host.ReadKey(ctx, key, get, node.Linearizable)
				return counted(err)
			})
		}
	}
	if _, err := load.measure(0, 2*time.Second); err != nil {
		t.Fatalf("client failed: %v", err)
	}
	if reconfigured.Load() != 0 {
		t.Errorf("%d operations died with ErrReconfigured on a lossless network", reconfigured.Load())
	}
	// converged carries the at-most-once and zero-link-gap checks.
	if err := c.converged(10 * time.Second); err != nil {
		t.Error(err)
	}
	var nudgeReplies uint64
	for _, r := range c.live() {
		for _, gs := range r.host.Status().Groups {
			if gs.Epoch != 0 {
				t.Errorf("replica %v group %v: epoch %d, want 0", r.host.ID(), gs.Group, gs.Epoch)
			}
			rep := r.cores[gs.Group]
			r.host.Group(gs.Group).Do(func() { nudgeReplies += rep.NudgeReplies() })
		}
	}
	if writes.Load() == 0 || reads.Load() == 0 || nudgeReplies == 0 {
		t.Fatalf("%d writes, %d reads, %d nudge replies: the run did not exercise nudged reads under write load",
			writes.Load(), reads.Load(), nudgeReplies)
	}
	t.Logf("G=%d: %d writes, %d linearizable reads, %d nudge replies", groups, writes.Load(), reads.Load(), nudgeReplies)
}
