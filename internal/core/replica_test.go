package core

import (
	"fmt"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/sim"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// harness runs Clock-RSM replicas over a simulated network and records
// per-replica execution order and client replies.
type harness struct {
	t       *testing.T
	c       *sim.Cluster
	reps    []*Replica
	apps    []*rsm.App
	orders  [][]types.CommandID
	replies []map[types.CommandID]time.Duration // reply time per command
	submits map[types.CommandID]time.Duration
	seq     uint64
}

func newHarness(t *testing.T, lat *wan.Matrix, opts Options, copts sim.ClusterOptions) *harness {
	t.Helper()
	h := &harness{
		t:       t,
		c:       sim.NewCluster(lat, copts),
		submits: make(map[types.CommandID]time.Duration),
	}
	n := lat.Size()
	h.orders = make([][]types.CommandID, n)
	h.replies = make([]map[types.CommandID]time.Duration, n)
	for i, r := range h.c.Replicas {
		i := i
		h.replies[i] = make(map[types.CommandID]time.Duration)
		app := &rsm.App{
			SM: rsm.NopSM{},
			OnCommit: func(ts types.Timestamp, cmd types.Command) {
				h.orders[i] = append(h.orders[i], cmd.ID)
			},
			OnReply: func(res types.Result) {
				h.replies[i][res.ID] = h.c.Eng.Now()
			},
		}
		rep := New(r, app, opts)
		h.reps = append(h.reps, rep)
		h.apps = append(h.apps, app)
		r.SetProtocol(rep)
	}
	h.c.Start()
	return h
}

// submitAt schedules a command at replica id at virtual time at.
func (h *harness) submitAt(id types.ReplicaID, at time.Duration) types.CommandID {
	h.seq++
	cid := types.CommandID{Origin: id, Seq: h.seq}
	h.c.Eng.At(at, func() {
		h.submits[cid] = h.c.Eng.Now()
		h.reps[id].Submit(types.Command{ID: cid, Payload: []byte("cmd")})
	})
	return cid
}

// latency returns the commit latency observed by the client of cid.
func (h *harness) latency(cid types.CommandID) time.Duration {
	rep, ok := h.replies[cid.Origin][cid]
	if !ok {
		h.t.Fatalf("no reply for %v", cid)
	}
	return rep - h.submits[cid]
}

// checkTotalOrder verifies that all replicas executed the same commands
// in the same order (Claim 2); live replicas must have executed exactly
// want commands if want >= 0.
func (h *harness) checkTotalOrder(want int, skip map[int]bool) {
	h.t.Helper()
	var ref []types.CommandID
	for i, ord := range h.orders {
		if skip[i] {
			continue
		}
		if ref == nil {
			ref = ord
			continue
		}
		min := len(ref)
		if len(ord) < min {
			min = len(ord)
		}
		for j := 0; j < min; j++ {
			if ref[j] != ord[j] {
				h.t.Fatalf("order divergence at %d: replica order %v vs %v", j, ref[:min], ord[:min])
			}
		}
	}
	if want >= 0 {
		for i, ord := range h.orders {
			if skip[i] {
				continue
			}
			if len(ord) != want {
				h.t.Fatalf("replica %d executed %d commands, want %d", i, len(ord), want)
			}
		}
	}
}

func TestSingleCommandCommitsEverywhere(t *testing.T) {
	h := newHarness(t, wan.Uniform(5, ms(10)), Options{}, sim.ClusterOptions{})
	cid := h.submitAt(0, 0)
	h.c.Eng.RunUntilIdle()
	h.checkTotalOrder(1, nil)
	// Imbalanced light load, no CLOCKTIME: commit at the origin takes one
	// round trip to the farthest replica = 2 * 10ms.
	if got := h.latency(cid); got != ms(20) {
		t.Errorf("latency = %v, want 20ms", got)
	}
}

func TestImbalancedLatencyIsTwiceMax(t *testing.T) {
	// Non-uniform distances from r0: the farthest (40ms) dominates.
	lat := wan.NewMatrix(5)
	dists := []int{0, 10, 15, 25, 40}
	for j := 1; j < 5; j++ {
		lat.Set(0, types.ReplicaID(j), ms(dists[j]))
		for k := j + 1; k < 5; k++ {
			lat.Set(types.ReplicaID(j), types.ReplicaID(k), ms(12))
		}
	}
	h := newHarness(t, lat, Options{}, sim.ClusterOptions{})
	cid := h.submitAt(0, 0)
	h.c.Eng.RunUntilIdle()
	if got := h.latency(cid); got != ms(80) {
		t.Errorf("latency = %v, want 2*max = 80ms", got)
	}
}

func TestClockTimeExtensionBoundsIdleLatency(t *testing.T) {
	// Topology where stable order dominates: two replicas close to r0
	// (5ms) and two far (100ms). lc1 = 2*median = 10ms; lc2^worst =
	// 2*max = 200ms; with Algorithm 2, lc2 ≈ max + Δ ≈ 105ms.
	lat := wan.NewMatrix(5)
	dists := []int{0, 5, 5, 100, 100}
	for j := 1; j < 5; j++ {
		lat.Set(0, types.ReplicaID(j), ms(dists[j]))
		for k := j + 1; k < 5; k++ {
			lat.Set(types.ReplicaID(j), types.ReplicaID(k), ms(50))
		}
	}
	withoutExt := newHarness(t, lat, Options{}, sim.ClusterOptions{})
	cid := withoutExt.submitAt(0, ms(500))
	withoutExt.c.Eng.RunUntil(ms(1500))
	if got := withoutExt.latency(cid); got != ms(200) {
		t.Errorf("idle latency without extension = %v, want 2*max = 200ms", got)
	}

	withExt := newHarness(t, lat, Options{ClockTimeInterval: ms(5)}, sim.ClusterOptions{})
	cid = withExt.submitAt(0, ms(500))
	withExt.c.Eng.RunUntil(ms(1500))
	got := withExt.latency(cid)
	// Expected ≈ max + Δ = 105ms; allow one extra Δ of phase slack.
	if got < ms(100) || got > ms(112) {
		t.Errorf("idle latency with extension = %v, want ≈ max+Δ ∈ [100ms, 112ms]", got)
	}
}

func TestTotalOrderUnderConcurrency(t *testing.T) {
	h := newHarness(t, wan.EC2Matrix([]wan.Site{wan.CA, wan.VA, wan.IR, wan.JP, wan.SG}),
		Options{ClockTimeInterval: ms(5)}, sim.ClusterOptions{Jitter: ms(2), Seed: 11})
	const perReplica = 40
	total := 0
	for i := 0; i < 5; i++ {
		for k := 0; k < perReplica; k++ {
			h.submitAt(types.ReplicaID(i), time.Duration(k*17+i*3)*time.Millisecond)
			total++
		}
	}
	h.c.Eng.RunUntil(20 * time.Second)
	h.checkTotalOrder(total, nil)
	// Every client got its reply.
	for i := 0; i < 5; i++ {
		if len(h.replies[i]) != perReplica {
			t.Errorf("replica %d replied to %d/%d commands", i, len(h.replies[i]), perReplica)
		}
	}
}

func TestTimestampOrderRespectsRealTime(t *testing.T) {
	// A command submitted after another's reply must execute after it
	// (linearizability real-time order, Claim 5).
	h := newHarness(t, wan.Uniform(3, ms(10)), Options{}, sim.ClusterOptions{})
	first := h.submitAt(0, 0)
	second := h.submitAt(1, ms(100)) // well after first's commit (~20ms)
	h.c.Eng.RunUntilIdle()
	h.checkTotalOrder(2, nil)
	if h.orders[0][0] != first || h.orders[0][1] != second {
		t.Errorf("real-time order violated: %v", h.orders[0])
	}
}

func TestClockSkewTriggersWaitAndPreservesOrder(t *testing.T) {
	// Replica 1's clock runs 30ms ahead: acks for its commands force the
	// line-8 wait at other replicas. Order must still be total and
	// commands still commit.
	h := newHarness(t, wan.Uniform(3, ms(10)),
		Options{ClockTimeInterval: ms(5)},
		sim.ClusterOptions{Skews: []time.Duration{0, ms(30), 0}})
	for k := 0; k < 10; k++ {
		h.submitAt(1, time.Duration(k*20)*time.Millisecond)
		h.submitAt(0, time.Duration(k*20+5)*time.Millisecond)
	}
	h.c.Eng.RunUntil(5 * time.Second)
	h.checkTotalOrder(20, nil)
	waits := h.reps[0].Waits() + h.reps[2].Waits()
	if waits == 0 {
		t.Error("expected the line-8 wait to trigger under 30ms skew")
	}
}

func TestNoCommitWithoutMajority(t *testing.T) {
	h := newHarness(t, wan.Uniform(5, ms(10)), Options{}, sim.ClusterOptions{})
	// Crash 3 of 5 replicas: majority of Spec is unreachable.
	h.c.Crash(2)
	h.c.Crash(3)
	h.c.Crash(4)
	h.submitAt(0, 0)
	h.c.Eng.RunUntil(time.Second)
	if len(h.orders[0]) != 0 {
		t.Error("committed without majority replication")
	}
}

func TestCommitWithMinorityCrashed(t *testing.T) {
	// 2 of 5 crashed: remaining 3 are a majority of Spec, but stable
	// order needs the crashed replicas' timestamps — reconfiguration
	// must remove them first.
	h := newHarness(t, wan.Uniform(5, ms(10)),
		Options{ClockTimeInterval: ms(5), SuspectTimeout: ms(200)},
		sim.ClusterOptions{})
	h.c.Crash(3)
	h.c.Crash(4)
	cid := h.submitAt(0, ms(10))
	h.c.Eng.RunUntil(5 * time.Second)
	skip := map[int]bool{3: true, 4: true}
	h.checkTotalOrder(1, skip)
	if _, ok := h.replies[0][cid]; !ok {
		t.Fatal("no reply after reconfiguration removed crashed replicas")
	}
	for i := 0; i < 3; i++ {
		if h.reps[i].Epoch() == 0 {
			t.Errorf("replica %d still in epoch 0", i)
		}
		if len(h.reps[i].Config()) != 3 {
			t.Errorf("replica %d config = %v", i, h.reps[i].Config())
		}
	}
}

func TestDuplicatePrepareIgnored(t *testing.T) {
	h := newHarness(t, wan.Uniform(3, ms(10)), Options{}, sim.ClusterOptions{})
	h.submitAt(0, 0)
	h.c.Eng.RunUntilIdle()
	// Replay the same PREPARE by hand: committed count must not change.
	before := h.reps[1].Committed()
	h.c.Eng.RunUntilIdle()
	if h.reps[1].Committed() != before {
		t.Error("duplicate delivery changed commit count")
	}
	h.checkTotalOrder(1, nil)
}

func TestBalancedWorkloadManyCommands(t *testing.T) {
	sites := []wan.Site{wan.CA, wan.VA, wan.IR}
	h := newHarness(t, wan.EC2Matrix(sites), Options{ClockTimeInterval: ms(5)},
		sim.ClusterOptions{Jitter: ms(1), Seed: 3})
	total := 0
	for i := 0; i < 3; i++ {
		for k := 0; k < 100; k++ {
			h.submitAt(types.ReplicaID(i), time.Duration(k*11+i*7)*time.Millisecond)
			total++
		}
	}
	h.c.Eng.RunUntil(30 * time.Second)
	h.checkTotalOrder(total, nil)
}

func TestPendingDrainsToZero(t *testing.T) {
	h := newHarness(t, wan.Uniform(5, ms(10)), Options{ClockTimeInterval: ms(5)}, sim.ClusterOptions{})
	for k := 0; k < 20; k++ {
		h.submitAt(types.ReplicaID(k%5), time.Duration(k)*ms(3))
	}
	h.c.Eng.RunUntil(2 * time.Second)
	for i, rep := range h.reps {
		if rep.PendingLen() != 0 {
			t.Errorf("replica %d still has %d pending commands", i, rep.PendingLen())
		}
	}
}

func TestNextCommandID(t *testing.T) {
	h := newHarness(t, wan.Uniform(3, ms(10)), Options{}, sim.ClusterOptions{})
	a := h.reps[0].NextCommandID()
	b := h.reps[0].NextCommandID()
	if a == b || a.Origin != 0 || b.Seq != a.Seq+1 {
		t.Errorf("NextCommandID: %v then %v", a, b)
	}
}

func TestLatencyMatchesAnalyticFiveSites(t *testing.T) {
	// Cross-validation against the Section IV model: imbalanced
	// moderate load at CA with 5 replicas. Expected commit latency =
	// max(2*median, max one-way) once PREPAREOK traffic keeps LatestTV
	// fresh.
	sites := []wan.Site{wan.CA, wan.VA, wan.IR, wan.JP, wan.SG}
	m := wan.EC2Matrix(sites)
	h := newHarness(t, m, Options{ClockTimeInterval: ms(5)}, sim.ClusterOptions{})
	var cids []types.CommandID
	for k := 0; k < 50; k++ {
		cids = append(cids, h.submitAt(0, time.Duration(200+k*20)*time.Millisecond))
	}
	h.c.Eng.RunUntil(5 * time.Second)
	want := 2 * m.Median(0) // lc1
	if mx := m.Max(0); mx > want {
		want = mx
	}
	// Steady state: later commands see fresh LatestTV; allow Δ slack.
	lat := h.latency(cids[40])
	if lat < want || lat > want+ms(15) {
		t.Errorf("steady-state latency = %v, analytic = %v", lat, want)
	}
}

func TestEpochTaggedMessagesDropped(t *testing.T) {
	// After reconfiguration to epoch 1, an old-epoch PREPARE must be
	// ignored.
	h := newHarness(t, wan.Uniform(3, ms(10)),
		Options{ClockTimeInterval: ms(5), SuspectTimeout: ms(200)}, sim.ClusterOptions{})
	h.c.Crash(2)
	h.c.Eng.RunUntil(2 * time.Second) // reconfiguration removes r2
	if h.reps[0].Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", h.reps[0].Epoch())
	}
	before := h.reps[0].Committed()
	// Hand-deliver an epoch-0 PREPARE at the current virtual time.
	h.c.Eng.After(0, func() {
		h.reps[0].Deliver(1, &msg.Prepare{
			Epoch: 0,
			TS:    types.Timestamp{Wall: h.reps[1].env.Clock(), Node: 1},
			Cmd:   types.Command{ID: types.CommandID{Origin: 1, Seq: 999}},
		})
	})
	h.c.Eng.RunUntil(3 * time.Second)
	if h.reps[0].Committed() != before {
		t.Error("old-epoch PREPARE was processed")
	}
}

func TestHarnessDeterminism(t *testing.T) {
	run := func() []types.CommandID {
		h := newHarness(t, wan.EC2Matrix([]wan.Site{wan.CA, wan.VA, wan.IR}),
			Options{ClockTimeInterval: ms(5)}, sim.ClusterOptions{Jitter: ms(2), Seed: 99})
		for k := 0; k < 30; k++ {
			h.submitAt(types.ReplicaID(k%3), time.Duration(k*13)*time.Millisecond)
		}
		h.c.Eng.RunUntil(10 * time.Second)
		return append([]types.CommandID(nil), h.orders[0]...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order at %d", i)
		}
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	h := newHarness(t, wan.Uniform(3, ms(5)), Options{}, sim.ClusterOptions{})
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	cid := types.CommandID{Origin: 0, Seq: 1}
	h.c.Eng.At(0, func() {
		h.submits[cid] = 0
		h.reps[0].Submit(types.Command{ID: cid, Payload: payload})
	})
	h.c.Eng.RunUntilIdle()
	h.checkTotalOrder(1, nil)
}

func TestManyReplicaGroupSizes(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			h := newHarness(t, wan.Uniform(n, ms(10)), Options{}, sim.ClusterOptions{})
			total := 0
			for k := 0; k < 5; k++ {
				h.submitAt(types.ReplicaID(k%n), time.Duration(k*9)*time.Millisecond)
				total++
			}
			h.c.Eng.RunUntilIdle()
			h.checkTotalOrder(total, nil)
		})
	}
}
