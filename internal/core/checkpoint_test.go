package core

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/rsm"
	"clockrsm/internal/sim"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// kvHarness runs Clock-RSM over the simulator with real kvstore state
// machines, for checkpoint/recovery tests.
type kvHarness struct {
	t      *testing.T
	c      *sim.Cluster
	reps   []*Replica
	stores []*kvstore.Store
	seq    uint64
}

func newKVHarness(t *testing.T, n int, opts Options, copts sim.ClusterOptions) *kvHarness {
	t.Helper()
	h := &kvHarness{t: t, c: sim.NewCluster(wan.Uniform(n, 10*time.Millisecond), copts)}
	for i := 0; i < n; i++ {
		store := kvstore.New()
		h.stores = append(h.stores, store)
		rep := New(h.c.Replicas[i], &rsm.App{SM: store}, opts)
		h.reps = append(h.reps, rep)
		h.c.Replicas[i].SetProtocol(rep)
	}
	h.c.Start()
	return h
}

func (h *kvHarness) put(at types.ReplicaID, when time.Duration, key, val string) {
	h.seq++
	seq := h.seq
	h.c.Eng.At(when, func() {
		h.reps[at].Submit(types.Command{
			ID:      types.CommandID{Origin: at, Seq: seq},
			Payload: kvstore.Put(key, []byte(val)),
		})
	})
}

func TestCheckpointTakenAndLogCompacted(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), CheckpointEvery: 5}
	h := newKVHarness(t, 3, opts, sim.ClusterOptions{})
	for k := 0; k < 12; k++ {
		h.put(types.ReplicaID(k%3), time.Duration(k*30)*time.Millisecond, "k", "v")
	}
	h.c.Eng.RunUntil(2 * time.Second)
	for i, rep := range h.reps {
		if rep.Checkpoints() < 2 {
			t.Errorf("replica %d took %d checkpoints, want ≥ 2", i, rep.Checkpoints())
		}
		// 12 commands: after the checkpoint at command 10, at most
		// 2 commands (4 entries) remain in the log.
		if n := h.c.Replicas[i].Log().Len(); n > 4 {
			t.Errorf("replica %d log has %d entries after checkpointing", i, n)
		}
		if rep.Committed() != 12 {
			t.Errorf("replica %d committed %d", i, rep.Committed())
		}
	}
}

func TestRecoveryFromCheckpointedFileLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ClockTimeInterval: ms(5), CheckpointEvery: 4}
	copts := sim.ClusterOptions{NewLog: func(id types.ReplicaID) storage.Log {
		l, err := storage.OpenFileLog(filepath.Join(dir, id.String()+".log"), storage.FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}}
	h := newKVHarness(t, 3, opts, copts)
	for k := 0; k < 10; k++ {
		h.put(types.ReplicaID(k%3), time.Duration(k*30)*time.Millisecond, "key", string(rune('a'+k)))
	}
	h.c.Eng.RunUntil(2 * time.Second)
	want := h.stores[1].SnapshotMap()
	if len(want) == 0 {
		t.Fatal("no state replicated")
	}

	// Recover r1 from its checkpointed on-disk log alone.
	h.c.Replicas[1].Log().Close()
	reopened, err := storage.OpenFileLog(filepath.Join(dir, "r1.log"), storage.FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.LastCheckpoint(); !ok {
		t.Fatal("no checkpoint on disk")
	}
	h.c.Replicas[1].SetLog(reopened)
	fresh := kvstore.New()
	rep := New(h.c.Replicas[1], &rsm.App{SM: fresh}, Options{})
	_ = rep
	if got := fresh.SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state %v != original %v", got, want)
	}
}

func TestStateTransferShipsSnapshot(t *testing.T) {
	// r2 crashes early; the survivors checkpoint past the commands r2
	// missed, so its rejoin must be served a snapshot, not raw commands.
	opts := Options{
		ClockTimeInterval: ms(5),
		SuspectTimeout:    300 * time.Millisecond,
		ConsensusRetry:    500 * time.Millisecond,
		CheckpointEvery:   3,
	}
	h := newKVHarness(t, 3, opts, sim.ClusterOptions{})
	for k := 0; k < 4; k++ {
		h.put(types.ReplicaID(k%3), time.Duration(k*30)*time.Millisecond, "early", string(rune('a'+k)))
	}
	h.c.Eng.RunUntil(500 * time.Millisecond)
	h.c.Eng.At(h.c.Eng.Now(), func() { h.c.Crash(2) })

	// Enough commands that survivors checkpoint well past r2's state.
	for k := 0; k < 12; k++ {
		h.put(types.ReplicaID(k%2), 2*time.Second+time.Duration(k*30)*time.Millisecond, "late", string(rune('a'+k)))
	}
	h.c.Eng.RunUntil(5 * time.Second)

	// Restart r2 with a fresh store, recovering from its (in-memory) log
	// and rejoining.
	h.c.Eng.At(h.c.Eng.Now(), func() {
		fresh := kvstore.New()
		h.stores[2] = fresh
		rep := New(h.c.Replicas[2], &rsm.App{SM: fresh}, Options{
			ClockTimeInterval: opts.ClockTimeInterval,
			ConsensusRetry:    opts.ConsensusRetry,
			CheckpointEvery:   opts.CheckpointEvery,
		})
		h.reps[2] = rep
		h.c.Replicas[2].SetProtocol(rep)
		h.c.Restart(2)
		rep.Start()
		rep.Rejoin()
	})
	h.c.Eng.RunUntil(40 * time.Second)
	if !h.reps[2].InConfig() {
		t.Fatal("r2 did not rejoin")
	}
	if got, want := h.stores[2].SnapshotMap(), h.stores[0].SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Errorf("r2 state after snapshot transfer = %v, want %v", got, want)
	}
}

func TestCheckpointIgnoredWithoutSnapshotter(t *testing.T) {
	// NopSM does not implement rsm.Snapshotter: checkpointing must be a
	// no-op, not a failure.
	h := newHarness(t, wan.Uniform(3, ms(10)), Options{CheckpointEvery: 2}, sim.ClusterOptions{})
	for k := 0; k < 6; k++ {
		h.submitAt(types.ReplicaID(k%3), time.Duration(k*30)*time.Millisecond)
	}
	h.c.Eng.RunUntilIdle()
	h.checkTotalOrder(6, nil)
	if h.reps[0].Checkpoints() != 0 {
		t.Error("checkpoint taken without a Snapshotter")
	}
}
