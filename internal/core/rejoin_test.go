package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/sim"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// lossyEnv loses everything its replica sends to one peer while lose
// reports true: real loss on a best-effort link, which the simulated
// network by itself never produces. It is deliberately not an
// rsm.Multicaster, so broadcasts fan out through Send too.
type lossyEnv struct {
	rsm.Env
	to   types.ReplicaID
	lose func() bool
}

func (e *lossyEnv) Send(to types.ReplicaID, m msg.Message) {
	if to == e.to && e.lose() {
		return
	}
	e.Env.Send(to, m)
}

// noCheckpointLog refuses to record checkpoints and leaves the log as it
// was, like chaos.ChaosLog under DiskCheckpointError.
type noCheckpointLog struct {
	*storage.MemLog
	refused int
}

func (l *noCheckpointLog) WriteCheckpoint(storage.Checkpoint) error {
	l.refused++
	return errors.New("injected: checkpoint write failed")
}

// TestForcedRejoinCatchUpIsAtMostOnce drives the self-repair path end
// to end: replica 2 loses a stretch of both peers' traffic, proves the
// gap from the Sent counters, forces a Rejoin, and — because a
// concurrent reconfiguration with a newer baseline wins the consensus
// instance — catches up through a state transfer whose responder ships
// an on-demand snapshot that already holds the decision's commands. No
// replica may execute a command twice: neither by CommandID, nor, as
// the apply counters show, by replaying on top of the snapshot commands
// the snapshot already covers. The second run makes replica 2's log
// refuse the snapshot's checkpoint, which used to leave LastCommitTS
// behind the restored state and re-execute the decision on top of it;
// the log then lacks what the snapshot covers, so the next commit must
// retry the checkpoint rather than wait out the interval.
func TestForcedRejoinCatchUpIsAtMostOnce(t *testing.T) {
	for name, newLog := range map[string]func() storage.Log{
		"checkpoint recorded": func() storage.Log { return storage.NewMemLog() },
		"checkpoint refused":  func() storage.Log { return &noCheckpointLog{MemLog: storage.NewMemLog()} },
	} {
		t.Run(name, func(t *testing.T) { forcedRejoin(t, newLog) })
	}
}

func forcedRejoin(t *testing.T, lagLog func() storage.Log) {
	defer func(v int) { catchupSnapshotThreshold = v }(catchupSnapshotThreshold)
	catchupSnapshotThreshold = 4

	const n, lagging = 3, 2
	// Replica 0 sits closer to replica 2 than replica 1 does, so its
	// answers reach replica 2 first whenever both reply at once.
	lat := wan.Uniform(n, ms(10))
	lat.Set(1, lagging, ms(14))
	c := sim.NewCluster(lat, sim.ClusterOptions{NewLog: func(id types.ReplicaID) storage.Log {
		if id == lagging {
			return lagLog()
		}
		return storage.NewMemLog()
	}})
	deaf := func() bool { return c.Eng.Now() >= ms(100) && c.Eng.Now() < ms(396) }
	// Checkpointing is on, but so sparse that only a state transfer's
	// on-demand checkpoint ever produces a snapshot.
	opts := Options{ClockTimeInterval: ms(5), ConsensusRetry: 500 * time.Millisecond, CheckpointEvery: 1 << 20}
	reps := make([]*Replica, n)
	stores := make([]*kvstore.Store, n)
	for i, sr := range c.Replicas {
		stores[i] = kvstore.New()
		seen := make(map[types.CommandID]bool)
		app := &rsm.App{SM: stores[i], OnCommit: func(_ types.Timestamp, cmd types.Command) {
			if seen[cmd.ID] {
				t.Errorf("replica %d executed %v twice", i, cmd.ID)
			}
			seen[cmd.ID] = true
		}}
		var env rsm.Env = sr
		if i != lagging {
			env = &lossyEnv{Env: sr, to: lagging, lose: deaf}
		}
		reps[i] = New(env, app, opts)
		sr.SetProtocol(reps[i])
	}
	c.Start()

	var seq uint64
	put := func(at types.ReplicaID, when time.Duration) {
		seq++
		cmd := types.Command{ID: types.CommandID{Origin: at, Seq: seq}, Payload: kvstore.Put("k", []byte{byte(seq)})}
		c.Eng.At(when, func() { reps[at].Submit(cmd) })
	}
	put(0, ms(10))
	put(1, ms(20))
	// Twelve commands commit at replicas 0 and 1 while replica 2 hears
	// neither of them...
	for k := 0; k < 12; k++ {
		put(types.ReplicaID(k%2), ms(110+20*k))
	}
	// ...three more are logged but still uncommitted when replica 0
	// reconfigures, so they travel in its decision...
	for k := 0; k < 3; k++ {
		put(0, ms(381+3*k))
	}
	// ...and that reconfiguration (an operator's, or the failure
	// detector's) has its value accepted at replica 0 by the time replica
	// 2 — which hears replica 1 acknowledge the last of those commands at
	// 397ms, proves the gap and forces its Rejoin — runs phase 1 for the
	// same epoch, so replica 2 adopts replica 0's decision, whose baseline
	// is ahead of its own frontier.
	c.Eng.At(ms(392), func() { reps[0].Reconfigure([]types.ReplicaID{0, 1, 2}) })
	put(1, 5*time.Second)
	c.Eng.RunUntil(6 * time.Second)

	lag := reps[lagging]
	if lag.LinkGaps() == 0 {
		t.Fatal("replica 2 never proved the gap: the Rejoin was not forced")
	}
	if lag.SnapRestores() == 0 {
		t.Fatal("replica 2 caught up without a snapshot: the on-demand checkpoint path did not run")
	}
	for i, rep := range reps {
		if rep.Epoch() == 0 || !rep.InConfig() {
			t.Fatalf("replica %d: epoch %d, in config %t after the rejoin", i, rep.Epoch(), rep.InConfig())
		}
		if got, want := stores[i].SnapshotMap(), stores[0].SnapshotMap(); !reflect.DeepEqual(got, want) {
			t.Errorf("replica %d state %v, replica 0 state %v", i, got, want)
		}
		if got, want := stores[i].Applied(), stores[0].Applied(); got != want {
			t.Errorf("replica %d applied %d commands, replica 0 applied %d: commands were executed twice", i, got, want)
		}
	}
	if got := stores[0].Applied(); got != seq {
		t.Errorf("replica 0 applied %d commands, %d were submitted", got, seq)
	}
	if lg, ok := c.Replicas[lagging].Log().(*noCheckpointLog); ok && lg.refused < 2 {
		t.Errorf("the refused checkpoint was attempted %d times, want a retry at the next commit", lg.refused)
	}
}

// TestRepeatedRejoinIsOneReconfiguration: Rejoin is idempotent. k calls
// made together are one rejoin, one reconfiguration (epoch 1 at every
// replica); a call made after that rejoin completed is a new one
// (epoch 2).
func TestRepeatedRejoinIsOneReconfiguration(t *testing.T) {
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("calls=%d", k), func(t *testing.T) {
			opts := Options{ClockTimeInterval: ms(5), ConsensusRetry: ms(200)}
			h := newHarness(t, wan.Uniform(3, ms(10)), opts, sim.ClusterOptions{})
			epochs := func(want types.Epoch) {
				t.Helper()
				for i, rep := range h.reps {
					if rep.Epoch() != want || !rep.InConfig() {
						t.Fatalf("replica %d: epoch %d, in config %t; want epoch %d", i, rep.Epoch(), rep.InConfig(), want)
					}
				}
			}
			h.c.Eng.At(ms(50), func() {
				for i := 0; i < k; i++ {
					h.reps[2].Rejoin()
				}
			})
			h.c.Eng.RunUntil(2 * time.Second)
			epochs(1)
			h.c.Eng.At(h.c.Eng.Now(), h.reps[2].Rejoin)
			h.c.Eng.RunUntil(4 * time.Second)
			epochs(2)
		})
	}
}

// TestRestartRejoinsItself: a replica rebuilt over the log it left
// behind replays it and rejoins on Start, with no option set and no
// Rejoin call, although the others reconfigured it out and committed
// more while it was down.
func TestRestartRejoinsItself(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), ConsensusRetry: ms(200)}
	h := newKVHarness(t, 3, opts, sim.ClusterOptions{})
	for k := 0; k < 6; k++ {
		h.put(types.ReplicaID(k%3), ms(30*k), "k", string(rune('a'+k)))
	}
	h.c.Eng.RunUntil(time.Second)
	h.c.Eng.At(h.c.Eng.Now(), func() {
		h.c.Crash(2)
		h.reps[0].Reconfigure([]types.ReplicaID{0, 1})
	})
	for k := 0; k < 6; k++ {
		h.put(types.ReplicaID(k%2), 2*time.Second+ms(30*k), "late"+string(rune('a'+k)), "v")
	}
	h.c.Eng.RunUntil(3 * time.Second)
	if h.reps[0].Epoch() != 1 || slices.Contains(h.reps[0].Config(), 2) {
		t.Fatalf("replica 2 not reconfigured out: epoch %d, config %v", h.reps[0].Epoch(), h.reps[0].Config())
	}

	h.c.Eng.At(h.c.Eng.Now(), func() {
		h.stores[2] = kvstore.New()
		rep := New(h.c.Replicas[2], &rsm.App{SM: h.stores[2]}, Options{})
		h.reps[2] = rep
		h.c.Replicas[2].SetProtocol(rep)
		h.c.Restart(2)
		rep.Start()
	})
	h.c.Eng.RunUntil(10 * time.Second)
	for i, rep := range h.reps {
		if !slices.Equal(rep.Config(), []types.ReplicaID{0, 1, 2}) {
			t.Fatalf("replica %d: epoch %d, config %v after the restart", i, rep.Epoch(), rep.Config())
		}
	}
	want := h.stores[0].SnapshotMap()
	if len(want) != 7 {
		t.Fatalf("replica 0 holds %d keys, want 7", len(want))
	}
	if got := h.stores[2].SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted replica state %v, replica 0 state %v", got, want)
	}
}
