package node

import (
	"context"
	"errors"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/rsm"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// readKey reads key through host at's routed read path.
func (c *cluster) readKey(ctx context.Context, at types.ReplicaID, key string, lvl Level) (ReadResult, error) {
	return c.hosts[at].ReadKey(ctx, key, kvstore.Get(key), lvl)
}

// readAt reads key at host at and fails the test on error.
func (c *cluster) readAt(t *testing.T, at types.ReplicaID, key string, lvl Level) ReadResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.readKey(ctx, at, key, lvl)
	if err != nil {
		t.Fatalf("Read at %v (%v): %v", at, lvl.Tier(), err)
	}
	return res
}

// assertProposed checks that the whole cluster proposed exactly want
// commands: a read served from local state proposes none.
func (c *cluster) assertProposed(t *testing.T, want uint64) {
	t.Helper()
	var proposed uint64
	for _, nd := range c.nodes {
		proposed += nd.status().Proposed
	}
	if proposed != want {
		t.Fatalf("local reads proposed commands: %d total proposals, want %d", proposed, want)
	}
}

// TestReadLinearizableObservesCompletedWrite is the headline contract:
// a linearizable read started after a write completed observes it, at
// any replica, without replicating the read.
func TestReadLinearizableObservesCompletedWrite(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	c.call(t, 0, kvstore.Put("k", []byte("v1")))
	for at := types.ReplicaID(0); at < 3; at++ {
		res := c.readAt(t, at, "k", Linearizable)
		if string(res.Value) != "v1" {
			t.Fatalf("replica %v: linearizable read = %q, want v1", at, res.Value)
		}
		if res.Replicated {
			t.Fatalf("replica %v: linearizable read was replicated", at)
		}
		if res.Watermark == 0 {
			t.Fatalf("replica %v: read served with zero watermark", at)
		}
	}
	// The reads added no replication traffic: only the single PUT was
	// ever proposed anywhere.
	c.assertProposed(t, 1)
}

// TestReadSequentialSession checks session monotonicity: a sequential
// read through a session never observes state older than what an
// earlier read through the same session saw — across replicas.
func TestReadSequentialSession(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	c.call(t, 0, kvstore.Put("s", []byte("sv1")))
	var sess Session
	res := c.readAt(t, 0, "s", Sequential(&sess))
	if string(res.Value) != "sv1" {
		t.Fatalf("sequential read at origin = %q, want sv1", res.Value)
	}
	if sess.Watermark() != res.Watermark || sess.Watermark() == 0 {
		t.Fatalf("session token %d, read watermark %d", sess.Watermark(), res.Watermark)
	}
	// Fail over: the other replicas must wait until their watermark
	// covers the session before serving, so the value can't be older.
	for at := types.ReplicaID(1); at < 3; at++ {
		res := c.readAt(t, at, "s", Sequential(&sess))
		if string(res.Value) != "sv1" {
			t.Fatalf("replica %v: session read = %q, want sv1", at, res.Value)
		}
		if res.Watermark < sess.Watermark() {
			t.Fatalf("replica %v: served at %d below session %d", at, res.Watermark, sess.Watermark())
		}
	}
	c.assertProposed(t, 1)
}

// TestReadStale checks the bounded-staleness tier: reads serve
// immediately with an age report, and the bound is enforced.
func TestReadStale(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	ctx := context.Background()
	// Before any commit the watermark is primordial: a bounded read is
	// too stale, an unbounded one serves the empty state.
	if _, err := c.readKey(ctx, 0, "z", Stale(time.Minute)); !errors.Is(err, ErrTooStale) {
		t.Fatalf("bounded stale read before any commit: %v, want ErrTooStale", err)
	}
	res, err := c.readKey(ctx, 0, "z", Stale(0))
	if err != nil || res.Value != nil {
		t.Fatalf("unbounded stale read = %q, %v", res.Value, err)
	}
	// After a commit the watermark is fresh: a generous bound passes
	// and the committed value is visible at the origin.
	c.call(t, 0, kvstore.Put("z", []byte("zv")))
	res, err = c.readKey(ctx, 0, "z", Stale(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "zv" {
		t.Fatalf("stale read after commit = %q, want zv", res.Value)
	}
	if res.Age <= 0 || res.Watermark == 0 {
		t.Fatalf("stale read age %v watermark %d, want positive", res.Age, res.Watermark)
	}
	c.assertProposed(t, 1)
}

// TestReadFallbackReplicated: protocols without a watermark (paxos,
// mencius) serve every level by replicating the read as a command.
func TestReadFallbackReplicated(t *testing.T) {
	for _, name := range []string{"paxos-bcast", "mencius-bcast"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()[name])
			c.call(t, 0, kvstore.Put("f", []byte("fv")))
			var sess Session
			for _, lvl := range []Level{Linearizable, Sequential(&sess), Stale(time.Hour)} {
				res := c.readAt(t, 0, "f", lvl)
				if !res.Replicated {
					t.Fatalf("%v read under %s not replicated", lvl.Tier(), name)
				}
				if string(res.Value) != "fv" {
					t.Fatalf("%v read = %q, want fv", lvl.Tier(), res.Value)
				}
			}
		})
	}
}

// quietClockRSM is a Clock-RSM maker with the CLOCKTIME extension (and
// with it the idle-read CLOCKREQ nudge) disabled: with no write traffic
// the watermark never advances, so linearizable reads park indefinitely
// — the setup for testing the parked-read sweep contracts.
func quietClockRSM(env rsm.Env, app *rsm.App) rsm.Protocol {
	return core.New(env, app, core.Options{})
}

// TestRemovedReplicaFailsParkedReads is the reconfiguration × reads
// regression: a linearizable read parked at a replica that is then
// removed from the configuration resolves ErrNotInConfig — the same
// sweep contract as write futures — and later reads at the removed
// replica fail fast with the same error.
func TestRemovedReplicaFailsParkedReads(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), quietClockRSM)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		_, err := c.readKey(ctx, 2, "k", Linearizable)
		errCh <- err
	}()
	// Let the read reach the loop and park (the watermark is stuck at
	// zero: no traffic, no CLOCKTIME).
	deadline := time.Now().Add(5 * time.Second)
	for c.nodes[2].status().ReadsParked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("read never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// Remove replica 2. Its parked read must resolve ErrNotInConfig.
	fut, err := c.nodes[0].Reconfigure(ctx, []types.ReplicaID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNotInConfig) {
			t.Fatalf("parked read at removed replica resolved %v, want ErrNotInConfig", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("parked read did not resolve after removal")
	}

	// New reads at the removed replica fail fast, at every loop-served
	// level.
	for _, lvl := range []Level{Linearizable, Sequential(nil)} {
		if _, err := c.readKey(ctx, 2, "k", lvl); !errors.Is(err, ErrNotInConfig) {
			t.Fatalf("%v read at removed replica: %v, want ErrNotInConfig", lvl.Tier(), err)
		}
	}
}

// TestStopSweepsParkedReads: Stop resolves parked reads ErrStopped, so
// no reader hangs across shutdown.
func TestStopSweepsParkedReads(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), quietClockRSM)
	ctx := context.Background()
	errCh := make(chan error, 1)
	go func() {
		_, err := c.readKey(ctx, 0, "k", Linearizable)
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.nodes[0].status().ReadsParked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("read never parked")
		}
		time.Sleep(time.Millisecond)
	}
	c.hosts[0].Stop()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("parked read resolved %v at Stop, want ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked read survived Stop")
	}
}

// TestStaleReadAfterStop: the shutdown contract is uniform across
// tiers — a stopped node fails Stale reads too, instead of serving its
// frozen state forever.
func TestStaleReadAfterStop(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	c.call(t, 0, kvstore.Put("k", []byte("v")))
	c.hosts[0].Stop()
	if _, err := c.readKey(context.Background(), 0, "k", Stale(0)); !errors.Is(err, ErrStopped) {
		t.Fatalf("stale read after Stop: %v, want ErrStopped", err)
	}
}

// TestReadCanceledWhileParked: a context expiry abandons a parked read
// with ErrCanceled; the loop's later serve is a no-op.
func TestReadCanceledWhileParked(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), quietClockRSM)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.readKey(ctx, 0, "k", Linearizable); !errors.Is(err, ErrCanceled) {
		t.Fatalf("abandoned read resolved %v, want ErrCanceled", err)
	}
}

// TestAbandonedParkedReadsPurged: canceled reads do not pin the waiter
// queue at a replica whose watermark is stalled — retry loops against
// a partitioned replica must not grow memory without bound.
func TestAbandonedParkedReadsPurged(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), quietClockRSM)
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		if _, err := c.readKey(ctx, 0, "k", Linearizable); !errors.Is(err, ErrCanceled) {
			t.Fatalf("read %d: %v, want ErrCanceled", i, err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var qlen int
		c.nodes[0].Do(func() { qlen = len(c.nodes[0].readQ) })
		if qlen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d abandoned reads still parked on the waiter queue", qlen)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHostReadRouting: Host.ReadKey lands a read, at any host, in the
// same group ProposeKey replicates the key's writes in.
func TestHostReadRouting(t *testing.T) {
	const groups = 3
	hub := transport.NewHub(3, transport.HubOptions{Codec: true, Groups: groups})
	t.Cleanup(hub.Close)
	spec := []types.ReplicaID{0, 1, 2}
	hosts := make([]*Host, 3)
	for i := range hosts {
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
			nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 2 * time.Millisecond}))
		}
		hosts[i] = h
	}
	for _, h := range hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Stop()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for k := 0; k < 8; k++ {
		key := string(rune('a'+k)) + "-key"
		fut, err := hosts[0].ProposeKey(ctx, key, kvstore.Put(key, []byte(key)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		// Read at the other hosts: each observes the completed write.
		for _, h := range hosts[1:] {
			res, err := h.ReadKey(ctx, key, kvstore.Get(key), Linearizable)
			if err != nil {
				t.Fatal(err)
			}
			if string(res.Value) != key {
				t.Fatalf("%v: Host.ReadKey(%q) = %q", h.ID(), key, res.Value)
			}
		}
	}
}

// TestStatusReadFields: the read watermark, age and counters surface in
// GroupStatus, alongside the held-buffer drop counter.
func TestStatusReadFields(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	c.call(t, 0, kvstore.Put("k", []byte("v")))
	c.readAt(t, 0, "k", Linearizable)
	st := c.hosts[0].Status().Groups[0]
	if st.ReadsLocal == 0 {
		t.Error("Status.ReadsLocal = 0 after a local read")
	}
	if st.ReadWatermark == 0 {
		t.Error("Status.ReadWatermark = 0 after a commit")
	}
	if st.ReadAge <= 0 {
		t.Errorf("Status.ReadAge = %v, want positive", st.ReadAge)
	}
	if st.HeldDropped != 0 {
		t.Errorf("Status.HeldDropped = %d, want 0", st.HeldDropped)
	}
}
