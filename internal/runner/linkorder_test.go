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
	"clockrsm/internal/shard"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
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
	addrs, err := freeAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	live := make([]*liveReplica, n)
	reps := make([][]*core.Replica, n)
	for i := range live {
		id := types.ReplicaID(i)
		host, err := node.NewHost(id, spec, transport.NewTCP(id, addrs, transport.TCPOptions{Groups: groups}), node.HostOptions{
			Groups: groups,
			NewLog: func(types.GroupID) storage.Log { return storage.NewMemLog() },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer host.Stop()
		live[i] = &liveReplica{host: host}
		for g := 0; g < groups; g++ {
			app := live[i].addGroup()
			nd := host.Group(types.GroupID(g))
			nd.Bind(app)
			rep := core.New(nd, app, core.Options{ClockTimeInterval: 5 * time.Millisecond})
			nd.SetProtocol(rep)
			reps[i] = append(reps[i], rep)
		}
	}
	for _, lr := range live {
		if err := lr.host.Start(); err != nil {
			t.Fatal(err)
		}
	}

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
	ctx := context.Background()
	router := shard.NewRouter(groups)
	load := newClosedLoop()
	for i := 0; i < n; i++ {
		for c := 0; c < clientsPerGroup*groups; c++ {
			key, g := clientKey(router, c)
			target := live[i].host.Group(g)
			put, get := kvstore.Put(key, make([]byte, 100)), kvstore.Get(key)
			load.client(&writes, func() error {
				fut, err := target.Propose(ctx, put)
				if err == nil {
					_, err = fut.Result()
				}
				return counted(err)
			})
			load.client(&reads, func() error {
				_, err := target.Read(ctx, get, node.Linearizable)
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
	var nudgeReplies uint64
	for i, lr := range live {
		if err := lr.atMostOnce(); err != nil {
			t.Error(err)
		}
		for g, gs := range lr.host.Status().Groups {
			if gs.LinkGaps != 0 || gs.Epoch != 0 {
				t.Errorf("replica %d group %d: link gaps %d, epoch %d, want 0 and 0", i, g, gs.LinkGaps, gs.Epoch)
			}
			rep := reps[i][g]
			lr.host.Group(types.GroupID(g)).Do(func() { nudgeReplies += rep.NudgeReplies() })
		}
	}
	if writes.Load() == 0 || reads.Load() == 0 || nudgeReplies == 0 {
		t.Fatalf("%d writes, %d reads, %d nudge replies: the run did not exercise nudged reads under write load",
			writes.Load(), reads.Load(), nudgeReplies)
	}
	t.Logf("G=%d: %d writes, %d linearizable reads, %d nudge replies", groups, writes.Load(), reads.Load(), nudgeReplies)
}
