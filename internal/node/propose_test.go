package node

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/rsm"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// TestProposeFutureResult checks the basic contract: Propose returns a
// future that resolves with the command's execution result.
func TestProposeFutureResult(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx := context.Background()
	fut, err := c.nodes[0].propose(ctx, kvstore.Put("k", []byte("v1")))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.ID.Origin != 0 || res.ID.Seq == 0 {
		t.Errorf("minted ID = %v, want origin r0 with nonzero seq", res.ID)
	}
	if res.Value != nil {
		t.Errorf("first PUT returned %q, want nil previous value", res.Value)
	}
	if v := c.call(t, 1, kvstore.Get("k")); string(v) != "v1" {
		t.Errorf("GET after PUT = %q", v)
	}
}

// TestProposeClientBatching pushes many concurrent proposals through a
// default node — the event loop drains them in shared batch turns — and
// checks they all commit with distinct IDs.
func TestProposeClientBatching(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	const clients, per = 16, 10
	var wg sync.WaitGroup
	ids := make(chan types.CommandID, clients*per)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			key := fmt.Sprintf("batch-%d", cl)
			for k := 0; k < per; k++ {
				fut, err := c.nodes[0].propose(context.Background(), kvstore.Put(key, []byte{byte(k)}))
				if err != nil {
					t.Errorf("Propose: %v", err)
					return
				}
				res, err := fut.Result()
				if err != nil {
					t.Errorf("future: %v", err)
					return
				}
				ids <- res.ID
			}
		}(cl)
	}
	wg.Wait()
	close(ids)
	seen := make(map[types.CommandID]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("command ID %v minted twice", id)
		}
		seen[id] = true
	}
	if len(seen) != clients*per {
		t.Fatalf("%d distinct IDs, want %d", len(seen), clients*per)
	}
}

// blockedCluster returns a 3-replica cluster in which replicas 1 and 2
// are stopped, so nothing replica 0 proposes can ever reach a majority
// and commit: its window (window slots when positive) fills and stays
// full.
func blockedCluster(t *testing.T, window int) *cluster {
	t.Helper()
	c := newClusterWindow(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"], window)
	c.hosts[1].Stop()
	c.hosts[2].Stop()
	return c
}

// TestProposeBackpressureBlocks checks the blocking path: a Propose
// against a full window waits, and the admission context can abandon
// the wait with ErrCanceled.
func TestProposeBackpressureBlocks(t *testing.T) {
	c := blockedCluster(t, 1)
	if _, err := c.nodes[0].propose(context.Background(), kvstore.Put("k", []byte("v"))); err != nil {
		t.Fatalf("first Propose: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.nodes[0].propose(ctx, kvstore.Put("k", []byte("v")))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("blocked Propose: err = %v, want ErrCanceled", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Errorf("blocked Propose returned after %v, before the context deadline", time.Since(start))
	}
}

// TestProposeSlotReleasedBeforeDone drives a 1-slot window with a
// strictly sequential client: resolution must release the window slot
// before publishing, so a proposal made right after the previous future
// resolved is admitted without waiting.
func TestProposeSlotReleasedBeforeDone(t *testing.T) {
	c := newClusterWindow(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"], 1)
	for k := 0; k < 20; k++ {
		fut, err := c.nodes[0].propose(context.Background(), kvstore.Put("k", []byte{byte(k)}))
		if err != nil {
			t.Fatalf("proposal %d: %v", k, err)
		}
		if _, err := fut.Result(); err != nil {
			t.Fatalf("future %d: %v", k, err)
		}
		if len(c.nodes[0].window) != 0 {
			t.Fatalf("future %d resolved with its window slot still held", k)
		}
	}
}

// TestProposeRejectsDeadContext checks admission: a context that is
// already done must not sneak a command into the state machine just
// because the window has room.
func TestProposeRejectsDeadContext(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.nodes[0].propose(ctx, kvstore.Put("k", []byte("v"))); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Propose with dead context: err = %v, want ErrCanceled", err)
	}
}

// TestProposeCancelAtMostOnce cancels a slice of proposals mid-flight
// on a healthy cluster and checks that no command — canceled or not —
// is ever executed twice, and that canceled futures resolve
// ErrCanceled or with a genuine result, never hang.
func TestProposeCancelAtMostOnce(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	const n = 60
	for k := 0; k < n; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		fut, err := c.nodes[0].propose(ctx, kvstore.Put("k", []byte{byte(k)}))
		if err != nil {
			t.Fatal(err)
		}
		if k%2 == 0 {
			cancel()
			if _, err := fut.Wait(ctx); err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled future: unexpected error %v", err)
			}
		} else {
			if _, err := fut.Wait(ctx); err != nil {
				t.Fatalf("awaited future: %v", err)
			}
			cancel()
		}
	}
	// Let trailing commits (canceled proposals that were already
	// submitted) land everywhere, then check at-most-once execution.
	time.Sleep(200 * time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ord := range c.orders {
		seen := make(map[types.CommandID]bool, len(ord))
		for _, cid := range ord {
			if seen[cid] {
				t.Fatalf("replica %d executed %v twice", i, cid)
			}
			seen[cid] = true
		}
		if len(ord) > n {
			t.Fatalf("replica %d executed %d commands, only %d proposed", i, len(ord), n)
		}
	}
}

// TestStopFailsInFlightProposals stops a node whose proposals cannot
// commit and checks every outstanding future resolves ErrStopped. The
// subtest name records that each proposal reaches the event loop as its
// own submit event, one command per submit.
func TestStopFailsInFlightProposals(t *testing.T) {
	t.Run("batch1", func(t *testing.T) {
		c := blockedCluster(t, 0)
		var futs []*Future
		for k := 0; k < 20; k++ {
			fut, err := c.nodes[0].propose(context.Background(), kvstore.Put("k", []byte("v")))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
		c.hosts[0].Stop()
		for i, fut := range futs {
			select {
			case <-fut.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("future %d still unresolved after Stop", i)
			}
			if _, err := fut.Result(); !errors.Is(err, ErrStopped) {
				t.Fatalf("future %d: err = %v, want ErrStopped", i, err)
			}
		}
		// A proposal after Stop must fail immediately, not hang.
		if _, err := c.nodes[0].propose(context.Background(), kvstore.Put("k", []byte("v"))); !errors.Is(err, ErrStopped) {
			t.Fatalf("Propose after Stop: err = %v, want ErrStopped", err)
		}
	})
}

// TestProposeAfterStopNotCounted: every proposal after Host.Stop fails
// ErrStopped, and none counts as admitted. Admission used to bump
// Proposed before the registry refused it, whenever the window slot won
// the race against the quit signal.
func TestProposeAfterStopNotCounted(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	c.call(t, 0, kvstore.Put("k", []byte("v")))
	h := c.hosts[0]
	h.Stop()
	before := h.Status().Groups[0].Proposed
	for i := 0; i < 100; i++ {
		if _, err := h.ProposeKey(context.Background(), "k", kvstore.Put("k", []byte("v"))); !errors.Is(err, ErrStopped) {
			t.Fatalf("proposal %d after Stop: err = %v, want ErrStopped", i, err)
		}
	}
	if got := h.Status().Groups[0].Proposed; got != before {
		t.Fatalf("Proposed moved %d -> %d across 100 refused proposals", before, got)
	}
}

// TestHostStopSweepsEveryGroup: on a 2-group host whose peers are down,
// each group holds a proposal that cannot commit, a parked linearizable
// read and a pending Reconfigure. One Host.Stop resolves all six with
// ErrStopped, a second Stop returns at once, and no goroutine outlives
// the host.
func TestHostStopSweepsEveryGroup(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const groups = 2
	hub := transport.NewHub(3, transport.HubOptions{Codec: true, Groups: groups})
	c := newHostClusterWith(t, 3, groups, func(id types.ReplicaID) transport.Transport {
		return hub.Endpoint(id)
	}, core.Options{}) // no CLOCKTIME: nothing advances the watermark
	c.start(t)
	c.hosts[1].Stop()
	c.hosts[2].Stop()
	h := c.hosts[0]

	ctx := context.Background()
	var futs []*Future
	reads := make(chan error, groups)
	for g := types.GroupID(0); g < groups; g++ {
		key := keyIn(h, g)
		fut, err := h.ProposeKey(ctx, key, kvstore.Put(key, []byte("v")))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
		go func() {
			_, err := h.ReadKey(ctx, key, kvstore.Get(key), Linearizable)
			reads <- err
		}()
		rf, err := h.Group(g).Reconfigure(ctx, []types.ReplicaID{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, rf)
	}
	waitFor(t, 5*time.Second, "a parked read in every group", func() bool {
		for _, gs := range h.Status().Groups {
			if gs.ReadsParked == 0 {
				return false
			}
		}
		return true
	})
	for i, f := range futs {
		if f.resolved() {
			t.Fatalf("future %d resolved before Stop", i)
		}
	}

	h.Stop()
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d unresolved after Stop", i)
		}
		if _, err := f.Result(); !errors.Is(err, ErrStopped) {
			t.Errorf("future %d: err = %v, want ErrStopped", i, err)
		}
	}
	for g := 0; g < groups; g++ {
		select {
		case err := <-reads:
			if !errors.Is(err, ErrStopped) {
				t.Errorf("parked read: err = %v, want ErrStopped", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked read unresolved after Stop")
		}
	}
	start := time.Now()
	h.Stop()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("second Stop took %v", d)
	}

	hub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the host, %d after Stop", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHostStopUnderLoad hammers a 2-group host cluster with concurrent
// proposers, stops every host mid-flight, and checks that (1) every
// proposer unblocks — futures resolve with a result or ErrStopped, and
// Propose itself returns an error once stopped — (2) no timer callback
// of any group, the pending Rejoin retry included, runs after Stop, and
// (3) no goroutines leak: the shutdown-under-load guarantee of the
// client API.
func TestHostStopUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// ConsensusRetry is short so the Rejoin retry (2x it) re-arms well
	// inside the post-Stop wait below.
	const retry = 25 * time.Millisecond
	var ran atomic.Int64
	const replicas, groups, proposers = 3, 2, 8
	hub := transport.NewHub(replicas, transport.HubOptions{Codec: true, Groups: groups})
	spec := []types.ReplicaID{0, 1, 2}
	hosts := make([]*Host, replicas)
	for i := 0; i < replicas; i++ {
		h, err := NewHost(types.ReplicaID(i), spec, hub.Endpoint(types.ReplicaID(i)), HostOptions{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < groups; g++ {
			app := &rsm.App{SM: kvstore.New()}
			nd := h.Group(types.GroupID(g))
			if err := h.Bind(types.GroupID(g), app); err != nil {
				t.Fatal(err)
			}
			env := countedAfter{nd, &ran}
			nd.SetProtocol(core.New(env, app, core.Options{ClockTimeInterval: 2 * time.Millisecond, ConsensusRetry: retry}))
		}
		hosts[i] = h
	}
	for _, h := range hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var completed, stopped atomic.Uint64
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			key := fmt.Sprintf("load-%d", p)
			payload := kvstore.Put(key, []byte("v"))
			for {
				fut, err := hosts[p%replicas].ProposeKey(context.Background(), key, payload)
				if err != nil {
					if !errors.Is(err, ErrStopped) {
						t.Errorf("Propose: %v", err)
					}
					return
				}
				if _, err := fut.Result(); err != nil {
					if errors.Is(err, ErrReconfigured) {
						continue // the mid-test Rejoin churned an epoch; resubmit
					}
					if !errors.Is(err, ErrStopped) {
						t.Errorf("future: %v", err)
					}
					stopped.Add(1)
					return
				}
				completed.Add(1)
			}
		}(p)
	}

	// Let the load ramp, then put one replica into a Rejoin cycle: its
	// retry timer (2× the consensus retry timeout) must not survive the
	// Stop below.
	time.Sleep(100 * time.Millisecond)
	hosts[2].Group(0).Do(hosts[2].Group(0).proto.(*core.Replica).Rejoin)
	time.Sleep(50 * time.Millisecond)
	if ran.Load() == 0 {
		t.Fatal("no timer callback ran before Stop; the counting env is not wired")
	}
	for _, h := range hosts {
		h.Stop()
	}
	// Every group's timers — CLOCKTIME and the Rejoin retry — are
	// cancelled by Stop: callbacks run on the loops, which have exited.
	before := ran.Load()
	time.Sleep(8 * retry)
	if n := ran.Load() - before; n != 0 {
		t.Errorf("%d timer callbacks ran after Stop", n)
	}

	loadDone := make(chan struct{})
	go func() { wg.Wait(); close(loadDone) }()
	select {
	case <-loadDone:
	case <-time.After(10 * time.Second):
		t.Fatal("proposers still blocked 10s after Stop: hung waiters leaked")
	}
	hub.Close()
	if completed.Load() == 0 {
		t.Error("no proposal completed before Stop; load never ramped")
	}
	t.Logf("%d proposals completed, %d failed ErrStopped", completed.Load(), stopped.Load())

	// Goroutines wind down to the pre-cluster baseline (allow slack for
	// runtime helpers and timers still draining).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d 5s after Stop — leak", baseline, runtime.NumGoroutine())
}
