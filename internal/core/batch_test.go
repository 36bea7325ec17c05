package core

import (
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// recordEnv is a minimal rsm.Env capturing outgoing messages, for
// white-box tests of the batch-turn coalescing.
type recordEnv struct {
	id    types.ReplicaID
	spec  []types.ReplicaID
	now   int64
	log   storage.Log
	sends []struct {
		to types.ReplicaID
		m  msg.Message
	}
}

func newRecordEnv(id types.ReplicaID, n int) *recordEnv {
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	return &recordEnv{id: id, spec: spec, now: 1, log: storage.NewMemLog()}
}

func (e *recordEnv) ID() types.ReplicaID     { return e.id }
func (e *recordEnv) Spec() []types.ReplicaID { return e.spec }
func (e *recordEnv) Clock() int64            { e.now++; return e.now }
func (e *recordEnv) Send(to types.ReplicaID, m msg.Message) {
	e.sends = append(e.sends, struct {
		to types.ReplicaID
		m  msg.Message
	}{to, m})
}
func (e *recordEnv) After(d time.Duration, fn func()) {}
func (e *recordEnv) Log() storage.Log                 { return e.log }

func prepareAt(origin types.ReplicaID, wall int64, seq uint64) *msg.Prepare {
	return &msg.Prepare{
		TS: types.Timestamp{Wall: wall, Node: origin},
		Cmd: types.Command{
			ID:      types.CommandID{Origin: origin, Seq: seq},
			Payload: []byte("x"),
		},
	}
}

// TestBatchedPreparesCoalescePrepareOKs delivers a msg.Batch of
// PREPAREs in one turn and checks the acknowledgements leave as a
// single msg.Batch of PREPAREOKs per destination, in timestamp order.
func TestBatchedPreparesCoalescePrepareOKs(t *testing.T) {
	env := newRecordEnv(1, 3)
	env.now = 1000 // local clock ahead of all prepare timestamps: no line-8 wait
	rep := New(env, &rsm.App{SM: rsm.NopSM{}}, Options{})
	rep.Start()
	env.sends = nil // drop anything Start produced

	batch := &msg.Batch{Msgs: []msg.Message{
		prepareAt(0, 10, 1),
		prepareAt(0, 11, 2),
		prepareAt(0, 12, 3),
	}}
	rep.Deliver(0, batch)

	// One coalesced message to each of the two other replicas.
	if len(env.sends) != 2 {
		t.Fatalf("sent %d messages, want 2 (one coalesced batch per peer)", len(env.sends))
	}
	for _, s := range env.sends {
		out, ok := s.m.(*msg.Batch)
		if !ok {
			t.Fatalf("sent %T to %v, want *msg.Batch", s.m, s.to)
		}
		if len(out.Msgs) != 3 {
			t.Fatalf("coalesced batch has %d messages, want 3", len(out.Msgs))
		}
		var prev int64
		for _, sub := range out.Msgs {
			ok, isOK := sub.(*msg.PrepareOK)
			if !isOK {
				t.Fatalf("batched reply contains %T, want *msg.PrepareOK", sub)
			}
			if ok.TS.Wall <= prev && prev != 0 {
				t.Error("PREPAREOKs out of timestamp order in batch")
			}
			prev = ok.TS.Wall
		}
	}
}

// TestSingleMessageTurnSendsPlainReply checks the degenerate batch: a
// turn producing one message must send it bare, not wrapped in a Batch.
func TestSingleMessageTurnSendsPlainReply(t *testing.T) {
	env := newRecordEnv(1, 3)
	env.now = 1000
	rep := New(env, &rsm.App{SM: rsm.NopSM{}}, Options{})
	rep.Start()
	env.sends = nil

	rep.BeginBatch()
	rep.Deliver(0, prepareAt(0, 10, 1))
	rep.EndBatch()

	if len(env.sends) != 2 {
		t.Fatalf("sent %d messages, want 2", len(env.sends))
	}
	for _, s := range env.sends {
		if _, ok := s.m.(*msg.PrepareOK); !ok {
			t.Fatalf("sent %T, want bare *msg.PrepareOK", s.m)
		}
	}
}

// TestEarlyAckBeforePrepare delivers a PREPAREOK before its PREPARE
// (possible across distinct FIFO links) and checks the acknowledgement
// is not lost: the command commits once the PREPARE arrives and order
// is stable.
func TestEarlyAckBeforePrepare(t *testing.T) {
	env := newRecordEnv(1, 3)
	env.now = 1000
	executed := 0
	app := &rsm.App{SM: rsm.NopSM{}, OnCommit: func(types.Timestamp, types.Command) { executed++ }}
	rep := New(env, app, Options{})
	rep.Start()

	ts := types.Timestamp{Wall: 10, Node: 0}
	// Replica 2 acknowledged before we even saw the PREPARE from 0.
	rep.Deliver(2, &msg.PrepareOK{TS: ts, ClockTS: 2000})
	rep.Deliver(0, prepareAt(0, 10, 1))
	// Stable order needs a recent clock from replica 0 too.
	rep.Deliver(0, &msg.ClockTime{TS: 2000})
	if executed != 1 {
		t.Fatalf("executed %d commands, want 1", executed)
	}
	if rep.PendingLen() != 0 {
		t.Errorf("pending not drained: %d", rep.PendingLen())
	}
}

// TestCumulativeAck checks that a PREPAREOK vouches for every earlier
// PREPARE of its origin: replica 2's one acknowledgement of the third of
// origin 0's PREPAREs completes a majority (0's implicit ack, our own,
// 2's) for all three.
func TestCumulativeAck(t *testing.T) {
	env := newRecordEnv(1, 5)
	env.now = 1000
	var order []int64
	app := &rsm.App{SM: rsm.NopSM{}, OnCommit: func(ts types.Timestamp, _ types.Command) { order = append(order, ts.Wall) }}
	rep := New(env, app, Options{})
	rep.Start()

	for i, wall := range []int64{10, 20, 30} {
		rep.Deliver(0, prepareAt(0, wall, uint64(i+1)))
	}
	rep.Deliver(2, &msg.PrepareOK{TS: types.Timestamp{Wall: 30, Node: 0}, ClockTS: 2000})
	for _, k := range []types.ReplicaID{0, 3, 4} {
		rep.Deliver(k, &msg.ClockTime{TS: 2000})
	}
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("executed walls %v, want [10 20 30]", order)
	}
	if rep.PendingLen() != 0 {
		t.Errorf("pending not drained: %d", rep.PendingLen())
	}
}

// TestAckWatermarkResetsAtInstall checks that an acknowledgement from an
// old epoch does not count toward a command of the new one: the
// watermarks restart at every epoch install.
func TestAckWatermarkResetsAtInstall(t *testing.T) {
	env := newRecordEnv(1, 5)
	env.now = 1000
	executed := 0
	rep := New(env, &rsm.App{SM: rsm.NopSM{}, OnCommit: func(types.Timestamp, types.Command) { executed++ }}, Options{})
	rep.Start()

	rep.Deliver(2, &msg.PrepareOK{TS: types.Timestamp{Wall: 500, Node: 0}, ClockTS: 2000})
	rep.finishApply(&decision{epoch: 1, cfg: env.spec}, nil)
	if rep.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", rep.Epoch())
	}

	p := prepareAt(0, 100, 1)
	p.Epoch = 1
	rep.Deliver(0, p)
	for _, k := range []types.ReplicaID{0, 2, 3, 4} {
		rep.Deliver(k, &msg.ClockTime{Epoch: 1, TS: 2000})
	}
	if executed != 0 || rep.PendingLen() != 1 {
		t.Fatalf("executed %d, pending %d: the old epoch's ack from replica 2 counted", executed, rep.PendingLen())
	}
	rep.Deliver(2, &msg.PrepareOK{Epoch: 1, TS: p.TS, ClockTS: 2001})
	if executed != 1 {
		t.Fatalf("executed %d after the new epoch's ack, want 1", executed)
	}
}

// TestMalformedOriginDropped checks the origin a PREPARE or PREPAREOK
// names at the wire boundary: a PREPARE must carry its sender's
// timestamp, and a PREPAREOK must name an origin in Spec. A malformed
// one neither panics, acknowledges anything nor enters pending.
func TestMalformedOriginDropped(t *testing.T) {
	for _, tc := range []struct {
		name string
		from types.ReplicaID
		m    msg.Message
	}{
		{"prepare of another origin", 2, prepareAt(0, 10, 1)},
		{"prepare of an origin outside spec", 0, prepareAt(7, 10, 1)},
		{"prepareok of a negative origin", 2, &msg.PrepareOK{TS: types.Timestamp{Wall: 10, Node: -1}, ClockTS: 2000}},
		{"prepareok of an origin past spec", 2, &msg.PrepareOK{TS: types.Timestamp{Wall: 10, Node: 3}, ClockTS: 2000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newRecordEnv(1, 3)
			env.now = 1000
			rep := New(env, &rsm.App{SM: rsm.NopSM{}}, Options{})
			rep.Start()
			env.sends = nil

			rep.Deliver(tc.from, tc.m)
			if rep.PendingLen() != 0 || len(env.sends) != 0 {
				t.Fatalf("pending %d, sent %d: malformed message was processed", rep.PendingLen(), len(env.sends))
			}
			for k, row := range rep.acked {
				for j, w := range row {
					if w != 0 {
						t.Errorf("acked[%d][%d] = %d, want 0", k, j, w)
					}
				}
			}
		})
	}
}

// TestLateDuplicatePrepareIgnored checks that a PREPARE duplicated
// after its command committed does not re-enter the pending set (which
// would re-execute the command).
func TestLateDuplicatePrepareIgnored(t *testing.T) {
	env := newRecordEnv(1, 3)
	env.now = 1000
	executed := 0
	rep := New(env, &rsm.App{SM: rsm.NopSM{}, OnCommit: func(types.Timestamp, types.Command) { executed++ }}, Options{})
	rep.Start()

	p := prepareAt(0, 10, 1)
	rep.Deliver(0, p)
	rep.Deliver(2, &msg.PrepareOK{TS: p.TS, ClockTS: 2000})
	rep.Deliver(0, &msg.ClockTime{TS: 2000})
	if executed != 1 {
		t.Fatalf("setup: executed %d, want 1", executed)
	}
	// The same PREPARE again (e.g. retransmission after the ack map was
	// cleaned): must be dropped, not re-executed.
	rep.Deliver(0, p)
	rep.Deliver(2, &msg.PrepareOK{TS: p.TS, ClockTS: 2001})
	rep.Deliver(0, &msg.ClockTime{TS: 2001})
	if executed != 1 {
		t.Errorf("late duplicate PREPARE re-executed: executed=%d", executed)
	}
	if rep.PendingLen() != 0 {
		t.Errorf("late duplicate re-entered pending: %d", rep.PendingLen())
	}
}

// sentTo returns, in send order, what env's replica emitted to peer.
func (e *recordEnv) sentTo(peer types.ReplicaID) []msg.Message {
	var out []msg.Message
	for _, s := range e.sends {
		if s.to == peer {
			out = append(out, s.m)
		}
	}
	return out
}

// linkPair builds replica 0 (the sender under test) and replica 1 (the
// receiver whose fifoCheck judges 0's link order) of a three-replica
// Spec, both past Start with nothing sent yet.
func linkPair() (a, b *Replica, aEnv *recordEnv) {
	aEnv = newRecordEnv(0, 3)
	aEnv.now = 1000
	a = New(aEnv, &rsm.App{SM: rsm.NopSM{}}, Options{})
	a.Start()
	bEnv := newRecordEnv(1, 3)
	bEnv.now = 5000 // ahead of every timestamp 0 assigns: no line-8 wait
	b = New(bEnv, &rsm.App{SM: rsm.NopSM{}}, Options{})
	b.Start()
	return a, b, aEnv
}

func command(origin types.ReplicaID, seq uint64) types.Command {
	return types.Command{ID: types.CommandID{Origin: origin, Seq: seq}, Payload: []byte("x")}
}

// TestNudgeReplyQueuesBehindPrepare is the Open-item-1 regression: a
// CLOCKREQ answered in the same batch turn as a Submit must not let the
// CLOCKTIME (stamped Sent = 1) reach the requester ahead of the PREPARE
// it vouches for — the requester's fifoCheck would prove a gap on a
// lossless link and force a Rejoin.
func TestNudgeReplyQueuesBehindPrepare(t *testing.T) {
	a, b, aEnv := linkPair()

	a.BeginBatch()
	a.Submit(command(0, 1))
	a.Deliver(1, &msg.ClockReq{})
	a.EndBatch()

	link := aEnv.sentTo(1)
	if len(link) != 2 {
		t.Fatalf("replica 1 was sent %d messages, want PREPARE then CLOCKTIME", len(link))
	}
	if _, ok := link[0].(*msg.Prepare); !ok {
		t.Fatalf("first message on the link is %T, want *msg.Prepare", link[0])
	}
	if ct, ok := link[1].(*msg.ClockTime); !ok || ct.Sent != 1 {
		t.Fatalf("second message on the link is %#v, want CLOCKTIME with Sent=1", link[1])
	}
	for _, m := range link {
		b.Deliver(0, m)
	}
	if b.LinkGaps() != 0 || b.Epoch() != 0 || a.Epoch() != 0 {
		t.Fatalf("link gaps=%d epochs=%d/%d, want 0 gaps and epoch 0", b.LinkGaps(), a.Epoch(), b.Epoch())
	}
	if b.PendingLen() != 1 {
		t.Fatalf("receiver holds %d pending commands, want 1", b.PendingLen())
	}
}

// TestMixedTurnLeavesInQueueOrder pins the outbox's framing on a turn
// that mixes broadcasts with unicasts: each run of consecutive
// broadcasts is one msg.Batch (bare when the run is a single message),
// and each unicast — a nudge reply, a SUSPENDOK — leaves in its queue
// position, so the link carries exactly the order the replica produced.
func TestMixedTurnLeavesInQueueOrder(t *testing.T) {
	a, b, aEnv := linkPair()

	a.BeginBatch()
	a.Submit(command(0, 1))
	a.Submit(command(0, 2))
	a.Deliver(1, &msg.ClockReq{})
	a.Submit(command(0, 3))
	a.Deliver(1, &msg.Suspend{Epoch: 1})
	if len(aEnv.sends) != 0 {
		t.Fatalf("%d messages left before the turn closed", len(aEnv.sends))
	}
	a.EndBatch()

	// The bystander sees only the broadcasts: one batch, one bare PREPARE.
	other := aEnv.sentTo(2)
	if len(other) != 2 {
		t.Fatalf("replica 2 was sent %d frames, want 2", len(other))
	}
	if first, ok := other[0].(*msg.Batch); !ok || len(first.Msgs) != 2 {
		t.Fatalf("replica 2's first frame is %#v, want a batch of 2 PREPAREs", other[0])
	}
	if _, ok := other[1].(*msg.Prepare); !ok {
		t.Fatalf("replica 2's second frame is %T, want a bare *msg.Prepare", other[1])
	}

	link := aEnv.sentTo(1)
	if len(link) != 4 {
		t.Fatalf("replica 1 was sent %d frames, want 4", len(link))
	}
	if link[0] != other[0] || link[2] != other[1] {
		t.Fatal("broadcast frames differ between peers")
	}
	if ct, ok := link[1].(*msg.ClockTime); !ok || ct.Sent != 2 {
		t.Fatalf("frame 2 is %#v, want CLOCKTIME with Sent=2", link[1])
	}
	ok, isOK := link[3].(*msg.SuspendOK)
	if !isOK || len(ok.Cmds) != 3 {
		t.Fatalf("frame 4 is %#v, want SUSPENDOK quoting 3 logged commands", link[3])
	}
	for _, m := range link {
		b.Deliver(0, m)
	}
	if b.LinkGaps() != 0 || b.Epoch() != 0 || a.Epoch() != 0 {
		t.Fatalf("link gaps=%d epochs=%d/%d, want 0 gaps and epoch 0", b.LinkGaps(), a.Epoch(), b.Epoch())
	}
	if b.PendingLen() != 3 {
		t.Fatalf("receiver holds %d pending commands, want 3", b.PendingLen())
	}
}

// syncCountLog counts group-commit barriers.
type syncCountLog struct {
	storage.Log
	syncs int
}

func (l *syncCountLog) Sync() error { l.syncs++; return nil }

// TestOneBarrierCoversTheTurn checks ack-after-fsync is enforced in one
// place: nothing leaves before the turn's covering fsync, a turn costs
// one fsync however many messages and kinds it produced, and a unicast
// quoting the log outside any turn is preceded by its own.
func TestOneBarrierCoversTheTurn(t *testing.T) {
	env := newRecordEnv(0, 3)
	env.now = 1000
	lg := &syncCountLog{Log: env.log}
	env.log = lg
	rep := New(env, &rsm.App{SM: rsm.NopSM{}}, Options{})
	rep.Start()

	rep.BeginBatch()
	rep.Submit(command(0, 1))
	rep.Deliver(1, &msg.ClockReq{})
	rep.Deliver(1, &msg.RetrieveCmds{To: types.Timestamp{Wall: 1 << 40}})
	if lg.syncs != 0 || len(env.sends) != 0 {
		t.Fatalf("mid-turn: %d syncs, %d sends, want none", lg.syncs, len(env.sends))
	}
	rep.EndBatch()
	if lg.syncs != 1 || len(env.sends) != 4 {
		t.Fatalf("after the turn: %d syncs for %d sends, want 1 sync for 4 sends", lg.syncs, len(env.sends))
	}

	rep.Deliver(2, &msg.RetrieveCmds{To: types.Timestamp{Wall: 1 << 40}})
	if lg.syncs != 2 || len(env.sends) != 5 {
		t.Fatalf("outside a turn: %d syncs, %d sends, want 2 and 5", lg.syncs, len(env.sends))
	}
}
