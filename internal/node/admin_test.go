package node

import (
	"context"
	"errors"
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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestNodeReconfigureShrinkGrow drives a 3-replica cluster through a
// shrink to {0,1} and back to {0,1,2} via the operator API, checking
// the future results, the status accessors on every node, and that the
// removed replica fails proposals with ErrNotInConfig while out and
// serves again once re-added.
func TestNodeReconfigureShrinkGrow(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	fut, err := c.nodes[0].Reconfigure(ctx, []types.ReplicaID{1, 0})
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("reconfigure future: %v", err)
	}
	if string(res.Value) != "r0,r1" {
		t.Errorf("reconfigure result = %q, want %q", res.Value, "r0,r1")
	}
	if got := c.nodes[0].status().Epoch; got != 1 {
		t.Errorf("node 0 epoch = %d, want 1", got)
	}
	if got := MemberString(c.nodes[0].status().Members); got != "r0,r1" {
		t.Errorf("node 0 members = %q", got)
	}
	// The removed replica learns the decision and flips out of config.
	waitFor(t, 10*time.Second, "node 2 to leave the configuration", func() bool {
		return !c.nodes[2].status().InConfig && c.nodes[2].status().Epoch == 1
	})
	// Proposals at the removed replica fail fast via their future.
	pf, err := c.nodes[2].propose(ctx, kvstore.Put("k", []byte("v")))
	if err != nil {
		t.Fatalf("Propose admission at removed replica: %v", err)
	}
	if _, err := pf.Wait(ctx); !errors.Is(err, ErrNotInConfig) {
		t.Fatalf("proposal at removed replica: err = %v, want ErrNotInConfig", err)
	}
	// The shrunken configuration still commits.
	if v := c.call(t, 0, kvstore.Put("k", []byte("v1"))); v != nil {
		t.Errorf("PUT at shrunken config returned %q", v)
	}

	// Grow back to three; the rejoined replica serves proposals again.
	fut, err = c.nodes[0].Reconfigure(ctx, []types.ReplicaID{0, 1, 2})
	if err != nil {
		t.Fatalf("grow Reconfigure: %v", err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatalf("grow future: %v", err)
	}
	waitFor(t, 10*time.Second, "node 2 to rejoin the configuration", func() bool {
		return c.nodes[2].status().InConfig && c.nodes[2].status().Epoch == 2
	})
	if v := c.call(t, 2, kvstore.Get("k")); string(v) != "v1" {
		t.Errorf("GET at rejoined replica = %q, want v1", v)
	}
}

// TestReconfigureProposeFutureFailsOnLoop checks that a proposal at a
// replica that is out of the configuration resolves ErrNotInConfig via
// its future (the admitted-then-failed path).
func TestReconfigureProposeFutureFailsOnLoop(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fut, err := c.nodes[0].Reconfigure(ctx, []types.ReplicaID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "node 2 removal", func() bool { return !c.nodes[2].status().InConfig })
	pf, err := c.nodes[2].propose(ctx, kvstore.Put("k", []byte("v")))
	if err != nil {
		t.Fatalf("Propose admission: %v", err)
	}
	if _, err := pf.Wait(ctx); !errors.Is(err, ErrNotInConfig) {
		t.Fatalf("future at removed replica: err = %v, want ErrNotInConfig", err)
	}
}

// TestReconfigureValidation exercises ErrBadConfig and
// ErrNotReconfigurable.
func TestReconfigureValidation(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx := context.Background()
	for name, members := range map[string][]types.ReplicaID{
		"empty":        {},
		"out of spec":  {0, 1, 7},
		"duplicate":    {0, 1, 1},
		"sub-majority": {0},
	} {
		if _, err := c.nodes[0].Reconfigure(ctx, members); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
	// Fixed-membership protocols refuse reconfiguration outright.
	p := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["paxos-bcast"])
	if _, err := p.nodes[0].Reconfigure(ctx, []types.ReplicaID{0, 1}); !errors.Is(err, ErrNotReconfigurable) {
		t.Errorf("paxos Reconfigure: err = %v, want ErrNotReconfigurable", err)
	}
	if st := p.hosts[0].Status().Groups[0]; !st.InConfig || st.Epoch != 0 || MemberString(st.Members) != "r0,r1,r2" {
		t.Errorf("fixed-membership status view: epoch=%d members=%v in=%v", st.Epoch, st.Members, st.InConfig)
	}
}

// TestReconfigureToCurrentConfigIsImmediate checks the idempotent fast
// path: reconfiguring to the configuration already in force succeeds
// without consuming an epoch.
func TestReconfigureToCurrentConfigIsImmediate(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fut, err := c.nodes[0].Reconfigure(ctx, []types.ReplicaID{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "r0,r1,r2" {
		t.Errorf("result = %q", res.Value)
	}
	if got := c.nodes[0].status().Epoch; got != 0 {
		t.Errorf("epoch advanced to %d for a no-op reconfiguration", got)
	}
}

// TestConcurrentReconfigureResolvesEveryFuture fires two competing
// Reconfigure proposals with different targets: every future must
// resolve (success or ErrConfigConflict — never hang), and all replicas
// must converge on one of the two configurations.
func TestConcurrentReconfigureResolvesEveryFuture(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f0, err := c.nodes[0].Reconfigure(ctx, []types.ReplicaID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := c.nodes[1].Reconfigure(ctx, []types.ReplicaID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for i, f := range []*Future{f0, f1} {
		_, err := f.Wait(ctx)
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrConfigConflict):
		case errors.Is(err, ErrNotInConfig):
			// The proposer itself was removed by the competing winner.
		default:
			t.Fatalf("future %d: unexpected error %v", i, err)
		}
	}
	if wins == 0 {
		t.Error("neither competing reconfiguration succeeded")
	}
	// All replicas converge on the same final configuration.
	waitFor(t, 10*time.Second, "config convergence", func() bool {
		m0 := MemberString(c.nodes[0].status().Members)
		return m0 == MemberString(c.nodes[1].status().Members) &&
			m0 == MemberString(c.nodes[2].status().Members) &&
			c.nodes[0].status().Epoch >= 1
	})
}

// TestInFlightFutureFailsOnRemoval removes a replica while it has a
// proposal in flight that cannot have committed: the future must
// resolve ErrNotInConfig (never park), and the command must never
// execute anywhere.
func TestInFlightFutureFailsOnRemoval(t *testing.T) {
	// Replica 2 is 400 ms away from 0 and 1, which are 1 ms apart: a
	// PREPARE from 2 cannot reach {0,1} before their reconfiguration
	// installs, so the command is provably discarded. (This test used
	// to flake ~25% under -race: the hub's old single-FIFO inbox let
	// the 400 ms-due PREPARE head-of-line-block the 1 ms-due SUSPEND
	// whenever the PREPARE's enqueue won the race, delaying the whole
	// reconfiguration until the PREPARE had been delivered and
	// collected — the command then legitimately committed. The hub now
	// merges per-sender FIFO queues in due-time order, so enqueue-order
	// races can no longer invert link latencies; the margin is kept
	// large for -race slowness.)
	lat := wan.NewMatrix(3)
	lat.Set(0, 1, time.Millisecond)
	lat.Set(0, 2, 400*time.Millisecond)
	lat.Set(1, 2, 400*time.Millisecond)
	c := newCluster(t, 3, lat, protoMakers()["clockrsm"])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pf, err := c.nodes[2].propose(ctx, kvstore.Put("doomed", []byte("v")))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := c.nodes[0].Reconfigure(ctx, []types.ReplicaID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Wait(ctx); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if _, err := pf.Wait(ctx); !errors.Is(err, ErrNotInConfig) {
		t.Fatalf("in-flight future at removed replica: err = %v, want ErrNotInConfig", err)
	}
	// The discarded command must not surface anywhere.
	time.Sleep(300 * time.Millisecond)
	for i, s := range c.stores {
		if v, ok := s.Lookup("doomed"); ok {
			t.Errorf("replica %d executed the discarded command (value %q)", i, v)
		}
	}
}

// TestHostReconfigureAllAtomic drives a 2-group host cluster 3→2→3:
// every group lands on the same configuration and epoch, and the host
// status reflects it on every replica.
func TestHostReconfigureAllAtomic(t *testing.T) {
	const n, groups = 3, 2
	hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: groups})
	t.Cleanup(hub.Close)
	c := newHostCluster(t, n, groups, func(id types.ReplicaID) transport.Transport {
		return hub.Endpoint(id)
	})
	c.start(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c.call(t, 0, 0, kvstore.Put("a", []byte("1")))
	c.call(t, 0, 1, kvstore.Put("b", []byte("2")))

	if err := c.hosts[0].ReconfigureAll(ctx, []types.ReplicaID{0, 1}); err != nil {
		t.Fatalf("ReconfigureAll shrink: %v", err)
	}
	st := c.hosts[0].Status()
	if len(st.Groups) != groups {
		t.Fatalf("status has %d groups", len(st.Groups))
	}
	for _, g := range st.Groups {
		if g.Epoch != 1 || MemberString(g.Members) != "r0,r1" || !g.InConfig {
			t.Errorf("group %v after shrink: epoch=%d members=%v in=%v",
				g.Group, g.Epoch, g.Members, g.InConfig)
		}
	}
	// The removed replica's status flips for every group.
	waitFor(t, 10*time.Second, "host 2 to observe removal in all groups", func() bool {
		for _, g := range c.hosts[2].Status().Groups {
			if g.InConfig || g.Epoch != 1 {
				return false
			}
		}
		return true
	})

	// Data still flows in both groups, and the grow restores replica 2.
	c.call(t, 0, 0, kvstore.Put("a", []byte("3")))
	if err := c.hosts[0].ReconfigureAll(ctx, []types.ReplicaID{0, 1, 2}); err != nil {
		t.Fatalf("ReconfigureAll grow: %v", err)
	}
	for _, g := range c.hosts[0].Status().Groups {
		if g.Epoch != 2 || MemberString(g.Members) != "r0,r1,r2" {
			t.Errorf("group %v after grow: epoch=%d members=%v", g.Group, g.Epoch, g.Members)
		}
	}
	waitFor(t, 10*time.Second, "host 2 to rejoin all groups", func() bool {
		for _, g := range c.hosts[2].Status().Groups {
			if !g.InConfig || g.Epoch != 2 {
				return false
			}
		}
		return true
	})
	if v := c.call(t, 2, 0, kvstore.Get("a")); string(v) != "3" {
		t.Errorf("GET at rejoined replica = %q, want 3", v)
	}
	// ReconfigureAll to the current configuration is a no-op success.
	if err := c.hosts[0].ReconfigureAll(ctx, []types.ReplicaID{0, 1, 2}); err != nil {
		t.Fatalf("idempotent ReconfigureAll: %v", err)
	}
	if got := c.hosts[0].Status().Groups[0].Epoch; got != 2 {
		t.Errorf("epoch advanced to %d on idempotent ReconfigureAll", got)
	}
}

// TestStatusCountersAndLatency sanity-checks the Status counters and
// the sampled commit-latency summary under enough proposals to hit the
// sampling mask.
func TestStatusCountersAndLatency(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	for k := 0; k < 64; k++ {
		c.call(t, 0, kvstore.Put("k", []byte{byte(k)}))
	}
	st := c.hosts[0].Status().Groups[0]
	if st.Proposed < 64 || st.Resolved < 64 {
		t.Errorf("counters: proposed=%d resolved=%d, want >= 64", st.Proposed, st.Resolved)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after all futures resolved", st.InFlight)
	}
	if st.CommitLatency.Samples == 0 {
		t.Error("no commit-latency samples after 64 proposals (mask admits 1 in 16)")
	}
	if st.CommitLatency.Mean <= 0 || st.CommitLatency.Max < st.CommitLatency.Mean {
		t.Errorf("latency summary inconsistent: %+v", st.CommitLatency)
	}
}

// TestReconfigureBypassesFullWindow checks the repair path stays open
// under backpressure: with the in-flight window full of proposals that
// cannot commit, Reconfigure must still be admitted (it is the
// operation that would unstick them), and Host.Stop must sweep its
// future.
func TestReconfigureBypassesFullWindow(t *testing.T) {
	c := blockedCluster(t, 1)
	if _, err := c.nodes[0].propose(context.Background(), kvstore.Put("k", []byte("v"))); err != nil {
		t.Fatalf("window-filling Propose: %v", err)
	}
	// Window is now full: a data proposal blocks until its context ends…
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.nodes[0].propose(ctx, kvstore.Put("k", []byte("v"))); !errors.Is(err, ErrCanceled) {
		t.Fatalf("data Propose with full window: err = %v, want ErrCanceled", err)
	}
	// …but the control plane is still admitted at once.
	fut, err := c.nodes[0].Reconfigure(context.Background(), []types.ReplicaID{0, 1})
	if err != nil {
		t.Fatalf("Reconfigure with full window: %v", err)
	}
	// The blocked cluster can never decide the epoch; Stop must sweep
	// the control future like any other.
	c.hosts[0].Stop()
	select {
	case <-fut.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("reconfigure future unresolved after Stop")
	}
	if _, err := fut.Result(); !errors.Is(err, ErrStopped) {
		t.Fatalf("reconfigure future after Stop: err = %v, want ErrStopped", err)
	}
}

// countedAfter is a Node whose After counts the callbacks that ran.
type countedAfter struct {
	*Node
	ran *atomic.Int64
}

func (e countedAfter) After(d time.Duration, fn func()) {
	e.Node.After(d, func() {
		e.ran.Add(1)
		fn()
	})
}

// TestStopCancelsPendingTimers checks the timer contract of Host.Stop:
// a callback armed through After before Stop never runs, neither does
// the rest of core's Rejoin retry chain (which used to keep firing after
// Stop), and After on a stopped host runs nothing.
func TestStopCancelsPendingTimers(t *testing.T) {
	var ran atomic.Int64
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), func(env rsm.Env, app *rsm.App) rsm.Protocol {
		if env.ID() == 2 {
			env = countedAfter{env.(*Node), &ran}
		}
		return core.New(env, app, core.Options{ClockTimeInterval: 5 * time.Millisecond, ConsensusRetry: 20 * time.Millisecond})
	})
	nd := c.nodes[2]
	waitFor(t, 5*time.Second, "replica 2's CLOCKTIME timer to run", func() bool { return ran.Load() > 0 })
	// Force a Rejoin: it arms a retry (2x ConsensusRetry = 40 ms) that
	// is still pending at the Stop below, as is the plain callback.
	nd.Do(nd.proto.(*core.Replica).Rejoin)
	var early, late atomic.Bool
	nd.After(20*time.Millisecond, func() { early.Store(true) })
	c.hosts[2].Stop()
	before := ran.Load()
	nd.After(time.Millisecond, func() { late.Store(true) })
	time.Sleep(200 * time.Millisecond)
	if early.Load() {
		t.Error("a callback armed before Stop ran after it")
	}
	if late.Load() {
		t.Error("After on a stopped host ran its callback")
	}
	if n := ran.Load() - before; n != 0 {
		t.Errorf("%d protocol timer callbacks (CLOCKTIME, Rejoin retry) ran after Stop", n)
	}
}
