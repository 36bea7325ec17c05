package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// gcid keys one command across the sharded store: sequence numbers are
// minted per group (each group is an independent RSM instance), so the
// command ID alone is not unique across groups.
type gcid struct {
	g   types.GroupID
	cid types.CommandID
}

// mgHarness drives a real-runtime sharded cluster (node.Host over the
// in-process codec transport) through the public client API — every
// command enters via Host.ProposeKey and completes via its Future —
// and records per-group histories. Keys are partitioned over groups by
// the host's routing table, so every key's operations land in exactly
// one group's total order: per-key linearizability of the sharded
// store reduces to per-group agreement + sequential semantics +
// real-time order, which verify checks.
type mgHarness struct {
	t      *testing.T
	groups int
	c      *cluster
	hosts  []*node.Host

	mu       sync.Mutex
	orders   [][][]types.CommandID // [replica][group] execution order
	payloads map[gcid][]byte
	results  map[gcid][]byte
	submits  map[gcid]time.Time
	replies  map[gcid]time.Time
	canceled int // proposals abandoned via context cancellation
	// reads records every local read issued through the read-path API,
	// for the per-key read/write interleaving check (see readlin_test).
	reads []readEv
}

func newMGHarness(t *testing.T, replicas, groups int) *mgHarness {
	return newMGHarnessLat(t, replicas, groups, nil)
}

// newMGHarnessLat is newMGHarness over a WAN latency matrix: message
// propagation takes real time, so stale local state is observable for
// whole milliseconds — long enough for the read checks to have teeth.
func newMGHarnessLat(t *testing.T, replicas, groups int, lat *wan.Matrix) *mgHarness {
	t.Helper()
	h := &mgHarness{
		t:        t,
		groups:   groups,
		orders:   make([][][]types.CommandID, replicas),
		payloads: make(map[gcid][]byte),
		results:  make(map[gcid][]byte),
		submits:  make(map[gcid]time.Time),
		replies:  make(map[gcid]time.Time),
	}
	for i := range h.orders {
		h.orders[i] = make([][]types.CommandID, groups)
	}
	c, err := newCluster(clusterSpec{
		replicas: replicas, groups: groups, latency: lat,
		core: core.Options{ClockTimeInterval: faultDelta},
		// The execution order carries the payloads: proposals no longer
		// know their command ID at submit time (the event loop mints
		// it), so correlation happens here.
		onCommit: func(id types.ReplicaID, g types.GroupID, cmd types.Command) {
			key := gcid{g, cmd.ID}
			h.mu.Lock()
			h.orders[id][g] = append(h.orders[id][g], cmd.ID)
			if _, ok := h.payloads[key]; !ok {
				h.payloads[key] = append([]byte(nil), cmd.Payload...)
			}
			h.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.stop)
	h.c = c
	for _, r := range c.live() {
		h.hosts = append(h.hosts, r.host)
	}
	return h
}

// call proposes one command at a replica through the public client API
// and waits for its future, recording the real-time window keyed by
// the command ID the node minted.
func (h *mgHarness) call(at types.ReplicaID, key string, payload []byte) {
	before := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fut, err := h.hosts[at].ProposeKey(ctx, key, payload)
	if err != nil {
		h.t.Errorf("ProposeKey(%q): %v", key, err)
		return
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		h.t.Errorf("proposal for key %q: %v", key, err)
		return
	}
	now := time.Now()
	k := gcid{h.hosts[at].Table().Group(key), res.ID}
	h.mu.Lock()
	h.results[k] = res.Value
	h.submits[k] = before
	h.replies[k] = now
	h.mu.Unlock()
}

// callCanceled proposes a command and immediately abandons the wait
// with an already-expired context: the future must resolve ErrCanceled
// (or, rarely, win the race and commit), and the command must never be
// observed executing twice — which verify asserts for every ID.
func (h *mgHarness) callCanceled(at types.ReplicaID, key string, payload []byte) {
	ctx, cancel := context.WithCancel(context.Background())
	fut, err := h.hosts[at].ProposeKey(ctx, key, payload)
	if err != nil {
		h.t.Errorf("ProposeKey(%q): %v", key, err)
		cancel()
		return
	}
	cancel() // timed out / client gone: abandon the wait right away
	res, err := fut.Wait(ctx)
	switch {
	case err == nil:
		// The commit raced the cancellation; the result is still valid.
		now := time.Now()
		k := gcid{h.hosts[at].Table().Group(key), res.ID}
		h.mu.Lock()
		h.results[k] = res.Value
		h.replies[k] = now
		h.mu.Unlock()
	case errors.Is(err, node.ErrCanceled):
		h.mu.Lock()
		h.canceled++
		h.mu.Unlock()
	default:
		h.t.Errorf("canceled proposal for key %q: unexpected error %v", key, err)
	}
}

// verify checks, per group: agreement of the execution order across
// replicas, at-most-once execution of every command (canceled
// proposals included), sequential kvstore semantics of every client
// reply, and real-time order between non-overlapping operations.
// successes is the independently counted number of proposals whose
// waits were carried to completion (the recorded results must cover at
// least those; raced cancellations may add more); attempts additionally
// counts canceled proposals, which may or may not have executed (but
// never twice).
func (h *mgHarness) verify(successes, attempts int) {
	h.t.Helper()
	h.verifySkip(successes, attempts, nil)
}

// verifySkip is verify with per-(replica, group) exclusions: a replica
// reconfigured out of a group's member set stops receiving that group's
// commands, so its frozen history is checked as a prefix of the
// reference rather than for equality.
func (h *mgHarness) verifySkip(successes, attempts int, skip func(rep int, g types.GroupID) bool) {
	h.t.Helper()
	if err := h.c.converged(10 * time.Second); err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	executed := 0
	for g := 0; g < h.groups; g++ {
		ref := h.orders[0][g]
		if skip != nil && skip(0, types.GroupID(g)) {
			// Pick an in-config replica as the reference.
			for i := 1; i < len(h.orders); i++ {
				if !skip(i, types.GroupID(g)) {
					ref = h.orders[i][g]
					break
				}
			}
		}
		for i := 0; i < len(h.orders); i++ {
			ord := h.orders[i][g]
			if skip != nil && skip(i, types.GroupID(g)) {
				// Frozen history: must still be a prefix of the reference
				// (agreement up to the removal point).
				if len(ord) > len(ref) {
					h.t.Fatalf("group %d: removed replica %d executed %d commands, more than the reference %d", g, i, len(ord), len(ref))
				}
				for j := range ord {
					if ord[j] != ref[j] {
						h.t.Fatalf("group %d: removed replica %d diverges at %d", g, i, j)
					}
				}
				continue
			}
			if len(ord) != len(ref) {
				h.t.Fatalf("group %d: replica %d executed %d commands, replica 0 executed %d", g, i, len(ord), len(ref))
			}
			for j := range ord {
				if ord[j] != ref[j] {
					h.t.Fatalf("group %d: execution order diverges at %d", g, j)
				}
			}
		}
		executed += len(ref)

		// At-most-once: no command may appear twice in its group's
		// order — a canceled proposal must never be duplicated. (IDs are
		// minted per group, so cross-group repeats are distinct commands.)
		seen := make(map[types.CommandID]bool, len(ref))
		for _, cid := range ref {
			if seen[cid] {
				h.t.Fatalf("group %d: command %v executed twice", g, cid)
			}
			seen[cid] = true
		}

		// Sequential semantics: replaying the group's execution order
		// must reproduce every reply its clients saw. Commands without a
		// recorded result (canceled waits) still mutate the replay state.
		replay := kvstore.New()
		pos := make(map[gcid]int, len(ref))
		for i, cid := range ref {
			k := gcid{types.GroupID(g), cid}
			pos[k] = i
			want := replay.Apply(h.payloads[k])
			got, ok := h.results[k]
			if !ok {
				continue // no client observed this commit
			}
			if string(want) != string(got) {
				h.t.Fatalf("group %d: command %d (%v): reply %q, sequential replay says %q", g, i, cid, got, want)
			}
		}
		// Real-time order within the group: if c1's reply precedes c2's
		// submission, c1 executes before c2.
		for c1 := range pos {
			r1, ok := h.replies[c1]
			if !ok {
				continue
			}
			for c2 := range pos {
				s2, ok := h.submits[c2]
				if !ok {
					continue
				}
				if r1.Before(s2) && pos[c1] >= pos[c2] {
					h.t.Fatalf("group %d: real-time violation: %v replied before %v was submitted but executed at %d ≥ %d",
						g, c1, c2, pos[c1], pos[c2])
				}
			}
		}
	}
	if len(h.results) < successes {
		h.t.Fatalf("recorded %d results, but %d proposals were awaited to completion", len(h.results), successes)
	}
	if executed < len(h.results) {
		h.t.Fatalf("executed %d commands across groups, but %d proposals resolved with results", executed, len(h.results))
	}
	if executed > attempts {
		h.t.Fatalf("executed %d commands across groups, more than the %d proposals ever made", executed, attempts)
	}
}

// waitConverged blocks until every replica executed the same number of
// commands per group (trailing commits landing), or the deadline.
func (h *mgHarness) waitConverged(d time.Duration) {
	h.waitConvergedSkip(d, nil)
}

// waitConvergedSkip is waitConverged minus (replica, group) pairs
// reconfigured out of their group.
func (h *mgHarness) waitConvergedSkip(d time.Duration, skip func(rep int, g types.GroupID) bool) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		done := true
		for g := 0; g < h.groups; g++ {
			want := -1
			for i := 0; i < len(h.orders); i++ {
				if skip != nil && skip(i, types.GroupID(g)) {
					continue
				}
				if want < 0 {
					want = len(h.orders[i][g])
				} else if len(h.orders[i][g]) != want {
					done = false
				}
			}
		}
		h.mu.Unlock()
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reconfigure drives one group at one host to a new member set through
// the operator API and waits for the future.
func (h *mgHarness) reconfigure(at types.ReplicaID, g types.GroupID, members []types.ReplicaID) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fut, err := h.hosts[at].Group(g).Reconfigure(ctx, members)
	if err != nil {
		h.t.Fatalf("Reconfigure group %v to %v: %v", g, members, err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		h.t.Fatalf("reconfigure future for group %v: %v", g, err)
	}
}

// TestMultiGroupLinearizability hammers a sharded 3-replica × 3-group
// cluster with concurrent clients over a small contended key space —
// every command entering through Host.ProposeKey, a slice of
// them canceled mid-flight — and checks per-key (= per-group)
// linearizability plus at-most-once execution from the recorded
// histories.
func TestMultiGroupLinearizability(t *testing.T) {
	const (
		replicas = 3
		groups   = 3
		clients  = 6
		perCli   = 25
		keys     = 8
	)
	h := newMGHarness(t, replicas, groups)
	var wg sync.WaitGroup
	var successes, attempts int64
	var cm sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) * 97))
			for k := 0; k < perCli; k++ {
				at := types.ReplicaID(rng.Intn(replicas))
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				var payload []byte
				switch rng.Intn(3) {
				case 0:
					payload = kvstore.Put(key, []byte(fmt.Sprintf("v-%d-%d", c, k)))
				case 1:
					payload = kvstore.Get(key)
				default:
					payload = kvstore.Delete(key)
				}
				// One in five proposals is abandoned mid-flight: the
				// client walks away (timeout, closed connection) and the
				// command must still execute at most once.
				if rng.Intn(5) == 0 {
					h.callCanceled(at, key, payload)
					cm.Lock()
					attempts++
					cm.Unlock()
					continue
				}
				h.call(at, key, payload)
				cm.Lock()
				successes++
				attempts++
				cm.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// Let trailing commits (including canceled proposals' commits) land
	// on every replica before comparing.
	h.waitConverged(10 * time.Second)
	h.mu.Lock()
	nCanceled := h.canceled
	// A canceled proposal that still committed recorded a result; those
	// count as successes for the history checks.
	raced := len(h.results) - int(successes)
	h.mu.Unlock()
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("%d proposals: %d awaited, %d canceled (%d of those still committed)",
		attempts, successes, nCanceled, raced)
	h.verify(int(successes), int(attempts))
}

// TestMultiGroupDivergentReconfiguration reconfigures two groups on the
// same hosts to different member sets (and therefore independent
// epochs): group 0 drops replica 3, group 1 drops replica 2. A
// contended workload then runs through replicas 0 and 1 — members of
// both groups — and per-key linearizability must hold per group, with
// each group's removed replica holding a consistent frozen prefix.
func TestMultiGroupDivergentReconfiguration(t *testing.T) {
	const (
		replicas = 4
		groups   = 2
		clients  = 4
		perCli   = 20
		keys     = 6
	)
	h := newMGHarness(t, replicas, groups)
	h.reconfigure(0, 0, []types.ReplicaID{0, 1, 2})
	h.reconfigure(0, 1, []types.ReplicaID{0, 1, 3})

	// The groups' control planes really diverged.
	for g, want := range map[types.GroupID]string{0: "r0,r1,r2", 1: "r0,r1,r3"} {
		gs := h.hosts[0].Status().Groups[g]
		if got := gs.Epoch; got != 1 {
			t.Errorf("group %v epoch = %d, want 1", g, got)
		}
		if got := node.MemberString(gs.Members); got != want {
			t.Errorf("group %v members = %q, want %q", g, got, want)
		}
	}

	var wg sync.WaitGroup
	var successes, attempts int64
	var cm sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*131 + 7))
			for k := 0; k < perCli; k++ {
				at := types.ReplicaID(rng.Intn(2)) // replicas 0,1 are in both groups
				key := fmt.Sprintf("dk%d", rng.Intn(keys))
				var payload []byte
				switch rng.Intn(3) {
				case 0:
					payload = kvstore.Put(key, []byte(fmt.Sprintf("dv-%d-%d", c, k)))
				case 1:
					payload = kvstore.Get(key)
				default:
					payload = kvstore.Delete(key)
				}
				h.call(at, key, payload)
				cm.Lock()
				successes++
				attempts++
				cm.Unlock()
			}
		}(c)
	}
	wg.Wait()
	skip := func(rep int, g types.GroupID) bool {
		return (g == 0 && rep == 3) || (g == 1 && rep == 2)
	}
	h.waitConvergedSkip(10*time.Second, skip)
	if t.Failed() {
		t.FailNow()
	}
	h.verifySkip(int(successes), int(attempts), skip)

	// Divergence persisted through the workload: per-group epochs and
	// configs on the serving replicas are still the reconfigured ones.
	for _, rep := range []types.ReplicaID{0, 1} {
		st := h.hosts[rep].Status()
		if got := node.MemberString(st.Groups[0].Members); got != "r0,r1,r2" {
			t.Errorf("replica %v group 0 members = %q", rep, got)
		}
		if got := node.MemberString(st.Groups[1].Members); got != "r0,r1,r3" {
			t.Errorf("replica %v group 1 members = %q", rep, got)
		}
	}
}
