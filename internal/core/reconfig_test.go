package core

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/sim"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// restart replaces the protocol instance of a crashed replica with a
// fresh one recovered from its log, and brings it back online.
func (h *harness) restart(id types.ReplicaID, opts Options) *Replica {
	i := int(id)
	h.orders[i] = nil // recovered replica replays its full history
	app := &rsm.App{
		SM: rsm.NopSM{},
		OnCommit: func(ts types.Timestamp, cmd types.Command) {
			h.orders[i] = append(h.orders[i], cmd.ID)
		},
		OnReply: func(res types.Result) {
			h.replies[i][res.ID] = h.c.Eng.Now()
		},
	}
	rep := New(h.c.Replicas[id], app, opts)
	h.reps[id] = rep
	h.c.Replicas[id].SetProtocol(rep)
	h.c.Restart(id)
	rep.Start()
	return rep
}

func TestReconfigurationPreservesCommittedCommands(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), SuspectTimeout: ms(300), ConsensusRetry: ms(500)}
	h := newHarness(t, wan.Uniform(5, ms(10)), opts, sim.ClusterOptions{})

	// Phase 1: commit a batch with everyone alive.
	for k := 0; k < 10; k++ {
		h.submitAt(types.ReplicaID(k%5), time.Duration(k*15)*time.Millisecond)
	}
	h.c.Eng.RunUntil(time.Second)
	h.checkTotalOrder(10, nil)

	// Phase 2: crash r4, wait for reconfiguration, commit more.
	h.c.Eng.At(h.c.Eng.Now(), func() { h.c.Crash(4) })
	for k := 0; k < 10; k++ {
		h.submitAt(types.ReplicaID(k%4), 2*time.Second+time.Duration(k*15)*time.Millisecond)
	}
	h.c.Eng.RunUntil(10 * time.Second)
	skip := map[int]bool{4: true}
	h.checkTotalOrder(20, skip)
	for i := 0; i < 4; i++ {
		if h.reps[i].Epoch() != 1 {
			t.Errorf("replica %d epoch = %d, want 1", i, h.reps[i].Epoch())
		}
	}
}

func TestCrashedReplicaRecoversAndRejoins(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), SuspectTimeout: ms(300), ConsensusRetry: ms(500)}
	h := newHarness(t, wan.Uniform(3, ms(10)), opts, sim.ClusterOptions{})

	for k := 0; k < 6; k++ {
		h.submitAt(types.ReplicaID(k%3), time.Duration(k*20)*time.Millisecond)
	}
	h.c.Eng.RunUntil(500 * time.Millisecond)
	h.checkTotalOrder(6, nil)

	// Crash r2; survivors reconfigure and keep committing.
	h.c.Eng.At(h.c.Eng.Now(), func() { h.c.Crash(2) })
	for k := 0; k < 6; k++ {
		h.submitAt(types.ReplicaID(k%2), 2*time.Second+time.Duration(k*20)*time.Millisecond)
	}
	h.c.Eng.RunUntil(5 * time.Second)
	h.checkTotalOrder(12, map[int]bool{2: true})

	// Restart r2 from its (in-memory) log and rejoin.
	h.c.Eng.At(h.c.Eng.Now(), func() {
		rep := h.restart(2, opts)
		rep.Rejoin()
	})
	h.c.Eng.RunUntil(30 * time.Second)
	if !h.reps[2].InConfig() {
		t.Fatalf("r2 not back in configuration; epoch=%d config=%v", h.reps[2].Epoch(), h.reps[2].Config())
	}
	// r2 must have caught up on the commands committed while it was down.
	if len(h.orders[2]) != 12 {
		t.Fatalf("r2 executed %d commands, want 12 (orders=%v)", len(h.orders[2]), h.orders[2])
	}
	h.checkTotalOrder(12, nil)

	// And new commands flow through the rejoined configuration.
	for k := 0; k < 3; k++ {
		h.submitAt(2, h.c.Eng.Now()+time.Duration(k*20)*time.Millisecond)
	}
	h.c.Eng.RunUntil(h.c.Eng.Now() + 5*time.Second)
	h.checkTotalOrder(15, nil)
	for i := range h.reps {
		if got := len(h.reps[i].Config()); got != 3 {
			t.Errorf("replica %d config size = %d, want 3", i, got)
		}
	}
}

func TestRecoveryFromFileLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ClockTimeInterval: ms(5), SuspectTimeout: ms(300), ConsensusRetry: ms(500)}
	copts := sim.ClusterOptions{NewLog: func(id types.ReplicaID) storage.Log {
		l, err := storage.OpenFileLog(filepath.Join(dir, id.String()+".log"), storage.FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}}
	h := newHarness(t, wan.Uniform(3, ms(10)), opts, copts)

	for k := 0; k < 8; k++ {
		h.submitAt(types.ReplicaID(k%3), time.Duration(k*20)*time.Millisecond)
	}
	h.c.Eng.RunUntil(time.Second)
	h.checkTotalOrder(8, nil)

	// Crash r1; commit more without it.
	h.c.Eng.At(h.c.Eng.Now(), func() { h.c.Crash(1) })
	for k := 0; k < 4; k++ {
		h.submitAt(0, 2*time.Second+time.Duration(k*20)*time.Millisecond)
	}
	h.c.Eng.RunUntil(5 * time.Second)

	// Reopen r1's log from disk — this is the true recovery path.
	h.c.Eng.At(h.c.Eng.Now(), func() {
		h.c.Replicas[1].Log().Close()
		reopened, err := storage.OpenFileLog(filepath.Join(dir, "r1.log"), storage.FileLogOptions{})
		if err != nil {
			t.Errorf("reopen log: %v", err)
			return
		}
		h.c.Replicas[1].SetLog(reopened)
		rep := h.restart(1, opts)
		rep.Rejoin()
	})
	h.c.Eng.RunUntil(30 * time.Second)
	if !h.reps[1].InConfig() {
		t.Fatal("r1 did not rejoin after disk recovery")
	}
	if len(h.orders[1]) != 12 {
		t.Fatalf("r1 executed %d commands after recovery, want 12", len(h.orders[1]))
	}
	h.checkTotalOrder(12, nil)
}

func TestReplayDoesNotReplyToClients(t *testing.T) {
	lg := storage.NewMemLog()
	ts1 := types.Timestamp{Wall: 10, Node: 0}
	cmd := types.Command{ID: types.CommandID{Origin: 0, Seq: 1}, Payload: []byte("x")}
	lg.Append(storage.Entry{Kind: storage.KindPrepare, TS: ts1, Cmd: cmd})
	lg.Append(storage.Entry{Kind: storage.KindCommit, TS: ts1})

	c := sim.NewCluster(wan.Uniform(3, ms(10)), sim.ClusterOptions{})
	c.Replicas[0].SetLog(lg)
	replied := 0
	executed := 0
	app := &rsm.App{
		SM:       rsm.NopSM{},
		OnReply:  func(types.Result) { replied++ },
		OnCommit: func(types.Timestamp, types.Command) { executed++ },
	}
	rep := New(c.Replicas[0], app, Options{})
	if executed != 1 {
		t.Errorf("replay executed %d commands, want 1", executed)
	}
	if replied != 0 {
		t.Errorf("replay sent %d client replies, want 0", replied)
	}
	if rep.Committed() != 1 {
		t.Errorf("Committed = %d", rep.Committed())
	}
}

func TestProposalEncodingRoundTrip(t *testing.T) {
	cfg := []types.ReplicaID{0, 2, 4}
	cts := types.Timestamp{Wall: 999, Node: 1}
	// The codec keeps nil and empty payloads apart (JSON null vs ""),
	// as the PREPARE path does, so DeepEqual needs no normalising.
	m := map[types.Timestamp]types.Command{
		{Wall: 1000, Node: 0}: {ID: types.CommandID{Origin: 0, Seq: 1}, Payload: []byte("a")},
		{Wall: 1001, Node: 2}: {ID: types.CommandID{Origin: 2, Seq: 2}, Payload: []byte{}},
		{Wall: 1002, Node: 4}: {ID: types.CommandID{Origin: 4, Seq: 3}},
	}
	snapTS := types.Timestamp{Wall: 1005, Node: 2}
	val := encodeProposal(cfg, cts, snapTS, sortedCmds(m))
	d, err := decodeProposal(val)
	if err != nil {
		t.Fatal(err)
	}
	want := &decision{cfg: cfg, ts: cts, snapTS: snapTS, cmds: sortedCmds(m)}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("decoded %+v, want %+v", d, want)
	}
	for cut := 0; cut < len(val); cut++ {
		if _, err := decodeProposal(val[:cut]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte proposal decoded", cut, len(val))
		}
	}
	for _, bad := range []string{`null `, string(val) + `{}`, `{"Cfg":[0],"Epoch":1}`, `{"Cmds":[{"TS":{},"Cmd":{"Payload":"!"}}]}`} {
		if _, err := decodeProposal([]byte(bad)); err != errBadProposal {
			t.Errorf("decodeProposal(%q) = %v, want errBadProposal", bad, err)
		}
	}
}

// FuzzProposal feeds arbitrary bytes to decodeProposal — decision
// values arrive from peers — which must never panic, and anything it
// accepts must re-encode to an equal decision.
func FuzzProposal(f *testing.F) {
	f.Add(encodeProposal([]types.ReplicaID{0, 1, 2}, types.Timestamp{Wall: 5, Node: 1}, types.Timestamp{},
		[]msg.TimestampedCommand{{TS: types.Timestamp{Wall: 6}, Cmd: types.Command{ID: types.CommandID{Seq: 1}, Payload: []byte("p")}}}))
	f.Add([]byte(`{"Cfg":[],"Cmds":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeProposal(data)
		if err != nil {
			return
		}
		re, err := decodeProposal(encodeProposal(d.cfg, d.ts, d.snapTS, d.cmds))
		if err != nil || !reflect.DeepEqual(re, d) {
			t.Fatalf("accepted proposal did not round-trip: %+v vs %+v (%v)", re, d, err)
		}
	})
}

// TestConfigListenerReportsInstallAndDrops drives a genuine Algorithm-3
// reconfiguration in which a far replica's in-flight command cannot
// reach any SUSPENDOK responder: the decision excludes it, every
// replica's listener observes the installed epoch, the origin's
// listener reports the command dropped, and the command never executes
// anywhere (so resubmitting it is safe).
func TestConfigListenerReportsInstallAndDrops(t *testing.T) {
	// r0..r3 are 1 ms apart; r4 is 200 ms from everyone, so nothing it
	// sends lands before the reconfiguration below has decided.
	lat := wan.NewMatrix(5)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			lat.Set(types.ReplicaID(i), types.ReplicaID(j), ms(1))
		}
		lat.Set(types.ReplicaID(i), 4, ms(200))
	}
	opts := Options{ClockTimeInterval: ms(5), ConsensusRetry: ms(500)}
	h := newHarness(t, lat, opts, sim.ClusterOptions{})
	events := make([][]rsm.ConfigEvent, 5)
	h.c.Eng.At(0, func() {
		for i, rep := range h.reps {
			i, rep := i, rep
			rep.SetConfigListener(func(ev rsm.ConfigEvent) { events[i] = append(events[i], ev) })
		}
	})
	cid := h.submitAt(4, ms(1))
	h.c.Eng.At(ms(2), func() {
		h.reps[0].Reconfigure([]types.ReplicaID{0, 1, 2, 3, 4})
	})
	h.c.Eng.RunUntil(2 * time.Second)

	for i := range h.reps {
		if got := h.reps[i].Epoch(); got != 1 {
			t.Errorf("replica %d epoch = %d, want 1", i, got)
		}
		if len(events[i]) == 0 {
			t.Errorf("replica %d: config listener never fired", i)
			continue
		}
		ev := events[i][0]
		if ev.View.Epoch != 1 || !ev.View.InConfig || len(ev.View.Members) != 5 {
			t.Errorf("replica %d: first event view = %+v", i, ev.View)
		}
	}
	// Only the origin reports the lost command, exactly once.
	for i := range h.reps {
		var drops []types.CommandID
		for _, ev := range events[i] {
			drops = append(drops, ev.Dropped...)
		}
		if i == 4 {
			if len(drops) != 1 || drops[0] != cid {
				t.Errorf("replica 4 dropped = %v, want [%v]", drops, cid)
			}
		} else if len(drops) != 0 {
			t.Errorf("replica %d dropped = %v, want none", i, drops)
		}
	}
	// The dropped command executed nowhere: resubmission cannot double
	// apply.
	h.checkTotalOrder(0, nil)
	if _, ok := h.replies[4][cid]; ok {
		t.Error("dropped command produced a client reply")
	}

	// A submission at a replica outside the configuration is reported
	// dropped immediately (the removed-replica steady state).
	h.c.Eng.At(h.c.Eng.Now()+ms(10), func() {
		h.reps[0].Reconfigure([]types.ReplicaID{0, 1, 2})
	})
	h.c.Eng.RunUntil(h.c.Eng.Now() + 2*time.Second)
	pre := len(events[3])
	var lateCid types.CommandID
	h.c.Eng.At(h.c.Eng.Now()+ms(10), func() {
		lateCid = types.CommandID{Origin: 3, Seq: 999}
		h.reps[3].Submit(types.Command{ID: lateCid, Payload: []byte("late")})
	})
	h.c.Eng.RunUntil(h.c.Eng.Now() + time.Second)
	if h.reps[3].InConfig() {
		t.Fatal("replica 3 still in config after shrink")
	}
	if len(events[3]) <= pre {
		t.Fatal("submit at removed replica fired no config event")
	}
	last := events[3][len(events[3])-1]
	if last.View.InConfig || len(last.Dropped) != 1 || last.Dropped[0] != lateCid {
		t.Errorf("removed-replica submit event = %+v", last)
	}
}

// TestFutureEpochMessagesHeldAndRedelivered checks the install-skew
// path: a PREPARE tagged with an epoch this replica has not installed
// yet is parked (not dropped, not executed), and redelivered once the
// matching reconfiguration decision installs — closing the permanent
// history gap a dropped cross-epoch PREPARE would leave.
func TestFutureEpochMessagesHeldAndRedelivered(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), ConsensusRetry: ms(500)}
	h := newHarness(t, wan.Uniform(3, ms(10)), opts, sim.ClusterOptions{})
	cmd := types.Command{ID: types.CommandID{Origin: 1, Seq: 77}, Payload: []byte("early")}
	var ts types.Timestamp
	h.c.Eng.At(ms(1), func() {
		// r1 "already installed epoch 1" and broadcasts a PREPARE r0 has
		// not caught up to yet.
		ts = types.Timestamp{Wall: h.c.Replicas[0].Clock(), Node: 1}
		h.reps[0].Deliver(1, &msg.Prepare{Epoch: 1, TS: ts, Cmd: cmd})
	})
	h.c.Eng.At(ms(2), func() {
		if got := h.reps[0].HeldLen(); got != 1 {
			t.Errorf("held = %d after future-epoch PREPARE, want 1", got)
		}
		if h.c.Replicas[0].Log().HasPrepare(ts) {
			t.Error("future-epoch PREPARE was logged before its epoch installed")
		}
		// A genuine reconfiguration now moves everyone to epoch 1.
		h.reps[1].Reconfigure([]types.ReplicaID{0, 1, 2})
	})
	h.c.Eng.RunUntil(5 * time.Second)
	if got := h.reps[0].Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	if got := h.reps[0].HeldLen(); got != 0 {
		t.Errorf("held = %d after install, want 0 (redelivered)", got)
	}
	if got := h.reps[0].HeldDropped(); got != 0 {
		t.Errorf("heldDropped = %d, want 0 (buffer never overflowed)", got)
	}
	if !h.c.Replicas[0].Log().HasPrepare(ts) {
		t.Error("held PREPARE was not redelivered at install")
	}
	// The redelivered command commits at r0 (sender's implicit ack plus
	// r0's own) and executes exactly once.
	execs := 0
	for _, cid := range h.orders[0] {
		if cid == cmd.ID {
			execs++
		}
	}
	if execs != 1 {
		t.Errorf("held command executed %d times at r0, want 1", execs)
	}
}

// TestReconfigurationPurgesStalePrepares checks that installing a
// decision removes uncommitted PREPAREs below the baseline too: stale
// cross-epoch junk left in the log would otherwise be served to a later
// state transfer as if committed, executing at exactly one replica.
func TestReconfigurationPurgesStalePrepares(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), ConsensusRetry: ms(500)}
	h := newHarness(t, wan.Uniform(3, ms(10)), opts, sim.ClusterOptions{})
	// Commit a few commands so the reconfiguration baseline is ahead of
	// the junk timestamp below.
	for k := 0; k < 4; k++ {
		h.submitAt(types.ReplicaID(k%3), time.Duration(k*20)*time.Millisecond)
	}
	h.c.Eng.RunUntil(500 * time.Millisecond)
	// Plant an uncommitted PREPARE below the commit frontier — the
	// residue a rejected cross-epoch PREPARE would leave.
	junkTS := types.Timestamp{Wall: 1, Node: 2}
	junk := types.Command{ID: types.CommandID{Origin: 2, Seq: 999}, Payload: []byte("junk")}
	h.c.Eng.At(h.c.Eng.Now(), func() {
		h.c.Replicas[0].Log().Append(storage.Entry{Kind: storage.KindPrepare, TS: junkTS, Cmd: junk})
		h.reps[0].Reconfigure([]types.ReplicaID{0, 1, 2})
	})
	h.c.Eng.RunUntil(h.c.Eng.Now() + 5*time.Second)
	if got := h.reps[0].Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	if h.c.Replicas[0].Log().HasPrepare(junkTS) {
		t.Error("stale uncommitted PREPARE below the baseline survived the reconfiguration")
	}
	// The junk never executed anywhere.
	h.checkTotalOrder(4, nil)
}

func TestSubmitWhileSuspendedIsDeferred(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), ConsensusRetry: ms(500)}
	h := newHarness(t, wan.Uniform(3, ms(10)), opts, sim.ClusterOptions{})
	// Manually reconfigure (same membership, bumps epoch) and submit
	// during the suspension window.
	h.c.Eng.At(ms(10), func() {
		h.reps[0].Reconfigure([]types.ReplicaID{0, 1, 2})
	})
	cid := h.submitAt(0, ms(11)) // r0 is suspended at this instant
	h.c.Eng.RunUntil(10 * time.Second)
	if _, ok := h.replies[0][cid]; !ok {
		t.Fatal("command submitted during suspension was lost")
	}
	h.checkTotalOrder(1, nil)
	if h.reps[0].Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", h.reps[0].Epoch())
	}
}

func TestSequentialReconfigurations(t *testing.T) {
	opts := Options{ClockTimeInterval: ms(5), SuspectTimeout: ms(300), ConsensusRetry: ms(500)}
	h := newHarness(t, wan.Uniform(5, ms(10)), opts, sim.ClusterOptions{})
	h.submitAt(0, ms(10))
	h.c.Eng.RunUntil(500 * time.Millisecond)

	// Crash r4 → epoch 1; then crash r3 → epoch 2.
	h.c.Eng.At(600*time.Millisecond, func() { h.c.Crash(4) })
	h.c.Eng.RunUntil(3 * time.Second)
	h.c.Eng.At(h.c.Eng.Now(), func() { h.c.Crash(3) })
	h.c.Eng.RunUntil(8 * time.Second)

	cid := h.submitAt(0, h.c.Eng.Now()+ms(10))
	h.c.Eng.RunUntil(h.c.Eng.Now() + 3*time.Second)
	if _, ok := h.replies[0][cid]; !ok {
		t.Fatal("no reply after two reconfigurations")
	}
	for i := 0; i < 3; i++ {
		if h.reps[i].Epoch() != 2 {
			t.Errorf("replica %d epoch = %d, want 2", i, h.reps[i].Epoch())
		}
		if len(h.reps[i].Config()) != 3 {
			t.Errorf("replica %d config = %v", i, h.reps[i].Config())
		}
	}
	h.checkTotalOrder(2, map[int]bool{3: true, 4: true})
}

// TestStaleRetrieveReplyIgnored replays what a lagging replica meets when
// it learns two decisions back to back: the slower responder's reply to
// the first state transfer arrives while the second is in flight. That
// reply covers the older range, so it must not count toward the second
// transfer's majority, or the replica installs the second epoch without
// the commands between the two baselines and its state diverges.
func TestStaleRetrieveReplyIgnored(t *testing.T) {
	env := newRecordEnv(2, 3)
	var executed []types.CommandID
	rep := New(env, &rsm.App{SM: rsm.NopSM{}, OnCommit: func(_ types.Timestamp, cmd types.Command) {
		executed = append(executed, cmd.ID)
	}}, Options{})
	rep.Start()

	cmdAt := func(wall int64, seq uint64) msg.TimestampedCommand {
		return msg.TimestampedCommand{
			TS:  types.Timestamp{Wall: wall, Node: 0},
			Cmd: types.Command{ID: types.CommandID{Origin: 0, Seq: seq}, Payload: []byte("x")},
		}
	}
	a, b := cmdAt(10, 1), cmdAt(20, 2)
	learn := func(e uint64, cfg []types.ReplicaID, ts types.Timestamp) {
		rep.Deliver(0, &msg.Learn{Instance: e, Value: encodeProposal(cfg, ts, types.Timestamp{}, nil)})
	}
	// lastRetrieve returns the newest state-transfer request sent.
	lastRetrieve := func() *msg.RetrieveCmds {
		t.Helper()
		var last *msg.RetrieveCmds
		var scan func(m msg.Message)
		scan = func(m msg.Message) {
			switch mm := m.(type) {
			case *msg.RetrieveCmds:
				last = mm
			case *msg.Batch:
				for _, sub := range mm.Msgs {
					scan(sub)
				}
			}
		}
		for _, s := range env.sends {
			scan(s.m)
		}
		if last == nil {
			t.Fatal("no state-transfer request sent")
		}
		return last
	}

	// Epoch 1 removes r2 with baseline a; r0 answers the transfer first.
	learn(1, []types.ReplicaID{0, 1}, a.TS)
	first := lastRetrieve()
	rep.Deliver(0, &msg.RetrieveReply{Seq: first.Seq, Cmds: []msg.TimestampedCommand{a}})
	if got := rep.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after the first transfer, want 1", got)
	}

	// Epoch 2 re-adds r2 with baseline b; r1's late answer to the first
	// transfer arrives while the second one waits.
	learn(2, []types.ReplicaID{0, 1, 2}, b.TS)
	second := lastRetrieve()
	if second == first {
		t.Fatal("epoch 2 sent no state-transfer request")
	}
	rep.Deliver(1, &msg.RetrieveReply{Seq: first.Seq, Cmds: []msg.TimestampedCommand{a}})
	if got := rep.Epoch(); got != 1 {
		t.Fatalf("a reply to the epoch-1 transfer installed epoch %d", got)
	}

	rep.Deliver(1, &msg.RetrieveReply{Seq: second.Seq, Cmds: []msg.TimestampedCommand{a, b}})
	if got := rep.Epoch(); got != 2 {
		t.Fatalf("epoch = %d after the second transfer, want 2", got)
	}
	if want := []types.CommandID{a.Cmd.ID, b.Cmd.ID}; !slices.Equal(executed, want) {
		t.Fatalf("executed %v, want %v", executed, want)
	}
}
