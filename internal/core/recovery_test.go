package core

import (
	"path/filepath"
	"reflect"
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

// recHarness is kvHarness plus per-replica capture of every executed
// (timestamp, command) pair, so recovery tests can replay exact
// duplicates of acknowledged commands at a restarted replica.
type recHarness struct {
	*kvHarness
	execs [][]msg.TimestampedCommand // [replica] commands in execution order
}

func newRecHarness(t *testing.T, n int, opts Options, copts sim.ClusterOptions) *recHarness {
	t.Helper()
	h := &recHarness{
		kvHarness: &kvHarness{t: t, c: sim.NewCluster(wan.Uniform(n, 10*time.Millisecond), copts)},
		execs:     make([][]msg.TimestampedCommand, n),
	}
	for i := 0; i < n; i++ {
		i := i
		store := kvstore.New()
		h.stores = append(h.stores, store)
		rep := New(h.c.Replicas[i], &rsm.App{
			SM: store,
			OnCommit: func(ts types.Timestamp, cmd types.Command) {
				h.execs[i] = append(h.execs[i], msg.TimestampedCommand{TS: ts, Cmd: cmd})
			},
		}, opts)
		h.reps = append(h.reps, rep)
		h.c.Replicas[i].SetProtocol(rep)
	}
	h.c.Start()
	return h
}

// restartReplica reopens replica id's file log and rebuilds it from
// stable state alone (New replays a log with history), with a fresh
// store and an execution counter — the in-process equivalent of a
// process restart.
func restartReplica(t *testing.T, h *recHarness, id int, path string, opts Options) (*Replica, *kvstore.Store, *int) {
	t.Helper()
	if err := h.c.Replicas[id].Log().Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := storage.OpenFileLog(path, storage.FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.c.Replicas[id].SetLog(reopened)
	fresh := kvstore.New()
	execs := 0
	rep := New(h.c.Replicas[id], &rsm.App{
		SM:       fresh,
		OnCommit: func(types.Timestamp, types.Command) { execs++ },
	}, opts)
	return rep, fresh, &execs
}

// fileLogOpts wires per-replica file logs under dir into the simulator.
func fileLogOpts(t *testing.T, dir string) sim.ClusterOptions {
	t.Helper()
	return sim.ClusterOptions{NewLog: func(id types.ReplicaID) storage.Log {
		l, err := storage.OpenFileLog(filepath.Join(dir, id.String()+".log"), storage.FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}}
}

// TestRestartedReplicaIgnoresDuplicatePrepare extends the
// lastCommitted duplicate-kill guard across a reopen: a replica
// rebuilt from its file log must treat a late duplicate PREPARE of an
// already-acknowledged command as conclusively committed — not
// re-execute it (the client was acked; executing twice violates
// exactly-once).
func TestRestartedReplicaIgnoresDuplicatePrepare(t *testing.T) {
	dir := t.TempDir()
	h := newRecHarness(t, 3, Options{ClockTimeInterval: ms(5)}, fileLogOpts(t, dir))
	for k := 0; k < 9; k++ {
		h.put(types.ReplicaID(k%3), time.Duration(k*30)*time.Millisecond, "key", string(rune('a'+k)))
	}
	h.c.Eng.RunUntil(2 * time.Second)
	if len(h.execs[1]) != 9 {
		t.Fatalf("r1 executed %d commands before restart, want 9", len(h.execs[1]))
	}
	want := h.stores[1].SnapshotMap()

	rep, fresh, execs := restartReplica(t, h, 1, filepath.Join(dir, "r1.log"), Options{})
	if *execs != 9 {
		t.Fatalf("replay executed %d commands, want 9", *execs)
	}
	if got := fresh.SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state %v != pre-restart %v", got, want)
	}

	// Replay exact duplicates of every acknowledged command, oldest and
	// newest included: none may execute again.
	before := rep.Committed()
	*execs = 0
	for _, tc := range h.execs[1] {
		rep.Deliver(0, &msg.Prepare{Epoch: 0, TS: tc.TS, Cmd: tc.Cmd})
	}
	if *execs != 0 {
		t.Errorf("duplicate PREPAREs re-executed %d commands after restart", *execs)
	}
	if rep.Committed() != before {
		t.Errorf("duplicate PREPAREs moved commit count %d -> %d", before, rep.Committed())
	}
	if got := fresh.SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Errorf("duplicate PREPAREs changed state: %v != %v", got, want)
	}
}

// TestRestartFromCheckpointOnlyLog is the empty-tail regression test
// for the recovery frontier: when the last checkpoint compacted the
// entire tail, the restarted replica's duplicate-kill frontier must
// come from the checkpoint itself — with nothing to replay, a frontier
// of zero would let a duplicate PREPARE at or below the checkpoint
// slip past the lastCommitted guard and re-execute an acked command.
func TestRestartFromCheckpointOnlyLog(t *testing.T) {
	dir := t.TempDir()
	// 8 commands at CheckpointEvery=4: the final checkpoint lands on the
	// commit frontier and compacts every log entry.
	h := newRecHarness(t, 3, Options{ClockTimeInterval: ms(5), CheckpointEvery: 4}, fileLogOpts(t, dir))
	for k := 0; k < 8; k++ {
		h.put(types.ReplicaID(k%3), time.Duration(k*30)*time.Millisecond, "key", string(rune('a'+k)))
	}
	h.c.Eng.RunUntil(2 * time.Second)
	if n := h.c.Replicas[1].Log().Len(); n != 0 {
		t.Fatalf("r1 log has %d live entries, want a fully compacted tail", n)
	}
	want := h.stores[1].SnapshotMap()

	rep, fresh, execs := restartReplica(t, h, 1, filepath.Join(dir, "r1.log"),
		Options{CheckpointEvery: 4})
	if *execs != 0 {
		t.Fatalf("replay executed %d commands, want 0 (checkpoint only)", *execs)
	}
	if got := fresh.SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state %v != pre-restart %v", got, want)
	}
	cpTS := h.c.Replicas[1].Log().LastCommitTS()
	if rep.lastCommitted != cpTS {
		t.Fatalf("recovery frontier %v != checkpoint timestamp %v", rep.lastCommitted, cpTS)
	}

	// Every acknowledged command is at or below the checkpoint; its
	// duplicate must die at the frontier.
	before := rep.Committed()
	for _, tc := range h.execs[1] {
		if !tc.TS.LessEq(cpTS) {
			t.Fatalf("command %v above checkpoint %v; compaction incomplete", tc.TS, cpTS)
		}
		rep.Deliver(0, &msg.Prepare{Epoch: 0, TS: tc.TS, Cmd: tc.Cmd})
	}
	if *execs != 0 {
		t.Errorf("duplicate PREPAREs re-executed %d commands covered by the checkpoint", *execs)
	}
	if rep.Committed() != before {
		t.Errorf("duplicate PREPAREs moved commit count %d -> %d", before, rep.Committed())
	}
	if got := fresh.SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Errorf("duplicate PREPAREs changed state: %v != %v", got, want)
	}
}
