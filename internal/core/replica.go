// Package core implements Clock-RSM, the paper's primary contribution:
// a multi-leader state machine replication protocol that totally orders
// commands with loosely synchronized physical clocks (Algorithm 1), the
// periodic clock-time broadcast extension (Algorithm 2), and the
// reconfiguration and recovery protocols (Algorithm 3, Section V).
//
// Durability and recovery (Section V-B): every PREPARE and COMMIT mark
// is appended to the replica's stable log before the message
// acknowledging it leaves — under group commit (storage.SyncBatch) one
// covering fsync per event-loop batch turn enforces that barrier. New
// over a log with history is a restart: it restores the newest
// checkpoint, replays only the committed tail, and clamps its
// duplicate-kill frontier to the checkpoint so acknowledged commands
// never re-execute; Start then rejoins, since the replica may have been
// reconfigured out while it was down. Catch-up — state transfer during
// reconfiguration, and Rejoin for a restarted or removed replica —
// ships checkpoint + log tail from peers, never full history; with
// checkpointing enabled a transfer responder takes a snapshot on demand
// when a long gap has no covering checkpoint yet.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"clockrsm/internal/consensus"
	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// Options tune a Clock-RSM replica.
type Options struct {
	// ClockTimeInterval is Δ of Algorithm 2: the minimum interval at
	// which a replica broadcasts its clock when idle. Zero disables the
	// extension (the protocol stays quiescent).
	ClockTimeInterval time.Duration
	// SuspectTimeout enables the failure detector: a silent configured
	// replica is suspected SuspectTimeout after its last message, and a
	// reconfiguration removing it starts then (Section V); one whose
	// process exited, at once (PeerDown). Zero disables detection.
	SuspectTimeout time.Duration
	// ConsensusRetry is the reproposal timeout of the reconfiguration
	// consensus; zero uses the consensus package default.
	ConsensusRetry time.Duration
	// Deprecated: ignored. New always recovers from the log's history
	// (see New).
	Replay bool
	// CheckpointEvery, when positive, takes a state-machine snapshot
	// every that many committed commands and compacts the log through it
	// (the checkpointing optimization of Section V-B). Requires the
	// state machine to implement rsm.Snapshotter and the log
	// storage.Checkpointer; otherwise it is ignored.
	CheckpointEvery int
}

// Replica is one Clock-RSM replica. All methods must be invoked from the
// replica's event loop (simulator dispatch or node goroutine); the type
// itself holds no locks. Every message it emits — broadcast, unicast or
// consensus — leaves through out, its one ordered way out (see outbox).
type Replica struct {
	env  rsm.Env
	app  *rsm.App
	opts Options
	out  outbox

	// syncer is the log's group-commit hook, when the log provides one
	// (storage.SyncMode batch). syncBarrier invokes it before any
	// protocol message leaves the replica: a PREPARE or PREPAREOK doubles
	// as a durable-logging acknowledgement (Alg. 1), so the covering
	// fsync must precede the send. Nil when the log syncs per append or
	// durability is off.
	syncer storage.Syncer

	spec     []types.ReplicaID
	epoch    types.Epoch
	config   []types.ReplicaID
	inConfig map[types.ReplicaID]bool

	nextSeq uint64

	// pending holds uncommitted commands (PendingCmds, Table I), one FIFO
	// per origin; see pendingSet.
	pending pendingSet
	// acked[k][j] is the newest wall of origin j's PREPAREs that replica k
	// is known to have logged this epoch (RepCounter, Table I, kept per
	// origin). Acknowledgements are cumulative: links are FIFO and
	// loss-free (fifoCheck), each origin's walls strictly increase
	// (Submit), and a replica logs every PREPARE on arrival, before any
	// send — so k acknowledging (w, j) vouches for every PREPARE of j up
	// to w, and an acknowledgement that outruns its PREPARE is already
	// counted when the PREPARE arrives. Reset at every epoch install.
	acked [][]int64
	// lastCommitted is the timestamp of the newest committed command.
	// Commits happen in timestamp order, so anything at or below it is
	// finished: late duplicate PREPAREs for it are dropped instead of
	// accumulating state.
	lastCommitted types.Timestamp
	// latestTV[k] is the latest clock reading known from replica k
	// (LatestTV in Table I), indexed by replica ID. The entry for self
	// is implicit: the local clock.
	latestTV []int64
	// lastSent is the wall timestamp of the last PREPARE / PREPAREOK /
	// CLOCKTIME this replica broadcast; Algorithm 2 broadcasts CLOCKTIME
	// once Clock ≥ lastSent + Δ.
	lastSent int64
	// lastProposed is the wall timestamp of this replica's newest own
	// PREPARE. Submit keeps proposal walls strictly increasing even when
	// they have to be bumped above the commit frontier (see Submit), so
	// the stable-order reasoning — a replica never prepares below a wall
	// it already announced — survives clocks that fall behind.
	lastProposed int64
	// lastHeard[k] is the local clock when a message from k last
	// arrived; the failure detector compares it against SuspectTimeout.
	// Only maintained when the detector is enabled.
	lastHeard []int64
	// prepSent counts the PREPAREs this replica has broadcast in the
	// current epoch; it rides on every outgoing PREPARE / PREPAREOK /
	// CLOCKTIME (the Sent field) so receivers can prove the FIFO
	// loss-free channel assumption still holds. prepRecv[k] is the
	// receive-side mirror: how many of k's PREPAREs arrived this epoch.
	// Both reset on every epoch install. See fifoCheck.
	prepSent uint64
	prepRecv []uint64
	// linkGaps counts proven channel breaks (a message arrived whose
	// Sent counter is ahead of prepRecv); each one triggered a Rejoin.
	// Atomic so status and tests can read it cross-goroutine.
	linkGaps atomic.Uint64

	// Reconfiguration state (Algorithm 3).
	suspended bool
	px        *consensus.Paxos
	rc        *reconfigInit
	st        *stateTransfer
	// stashed holds decisions for epochs we cannot apply yet.
	stashed map[types.Epoch]*decision
	// rejoining/rejoinTarget track an in-progress Rejoin: its one retry
	// chain is armed while rejoining, and it is done once epoch ≥
	// rejoinTarget with self configured.
	rejoining    bool
	rejoinTarget types.Epoch
	// restarted records that New found history in the log (entries or a
	// checkpoint): Start rejoins.
	restarted bool
	// deferred buffers client commands submitted while suspended.
	deferred []types.Command
	// heldDropped counts messages discarded on held-buffer overflow; it
	// is atomic so node.Status can surface it without crossing the
	// event loop.
	heldDropped atomic.Uint64
	// needCatchup is set when held-buffer overflow may have left a gap
	// in this replica's history; the next reconfiguration install
	// schedules a Rejoin, whose state transfer (checkpoint + tail)
	// repairs the gap instead of leaving silent divergence.
	needCatchup bool
	// snapRestores counts state-machine restores from a peer's shipped
	// snapshot (checkpoint + tail catch-up, as opposed to full-log
	// replay); atomic so tests and status can read it cross-goroutine.
	snapRestores atomic.Uint64
	// held buffers PREPARE / PREPAREOK / CLOCKTIME messages that arrive
	// tagged with a future epoch: the sender installed a reconfiguration
	// decision this replica has not applied yet. Dropping them instead
	// would leave a permanent gap — a new-epoch command can commit with
	// a majority of Spec that excludes the stragglers, whose stability
	// rule then lets them commit past the hole. The window is bounded by
	// the install skew (stability stalls the sender's commits until this
	// replica speaks the new epoch), so the buffer stays small; it is
	// capped as a backstop.
	held []heldMsg
	// onConfig, when set, observes every installed configuration and
	// every locally originated command the protocol discards (see
	// rsm.Reconfigurable). Fired on the event loop, off the data hot
	// path: only reconfigurations and refused submissions reach it.
	onConfig func(ev rsm.ConfigEvent)
	// onStable, when set, fires at the end of every turn in which the
	// executed watermark may have advanced (see rsm.StateReader); the
	// runtime's read path uses it to release parked reads.
	onStable func()

	// sinceCheckpoint counts commands executed since the last
	// checkpoint.
	sinceCheckpoint int

	// lastNudge is the local clock reading when this replica last
	// broadcast a CLOCKREQ; NudgeClock suppresses re-requests inside a
	// quarter of Δ so a burst of parked reads costs one broadcast.
	lastNudge int64

	// Counters exposed for tests and measurements.
	committed    uint64
	waits        uint64 // times the line-8 wait actually blocked
	checkpoints  uint64
	nudges       uint64 // CLOCKREQ broadcasts sent for parked reads
	nudgeReplies uint64 // CLOCKREQs answered with an immediate CLOCKTIME
}

var (
	_ rsm.Protocol       = (*Replica)(nil)
	_ rsm.Reconfigurable = (*Replica)(nil)
	_ rsm.StateReader    = (*Replica)(nil)
)

// New creates a Clock-RSM replica over env, executing committed commands
// against app. The initial configuration is the full Spec. A log with
// history makes this a restart (recovery from stable storage, Section
// V-B): the newest checkpoint is restored, the committed tail is
// re-executed without client replies, and Start rejoins. Over an empty
// log nothing is replayed.
func New(env rsm.Env, app *rsm.App, opts Options) *Replica {
	spec := env.Spec()
	r := &Replica{
		env:       env,
		app:       app,
		opts:      opts,
		spec:      spec,
		config:    append([]types.ReplicaID(nil), spec...),
		inConfig:  make(map[types.ReplicaID]bool, len(spec)),
		pending:   pendingSet{q: make([]originQueue, len(spec))},
		acked:     make([][]int64, len(spec)),
		latestTV:  make([]int64, len(spec)),
		lastHeard: make([]int64, len(spec)),
		prepRecv:  make([]uint64, len(spec)),
		stashed:   make(map[types.Epoch]*decision),
	}
	for _, id := range spec {
		r.inConfig[id] = true
		r.acked[id] = make([]int64, len(spec))
	}
	r.out.r = r
	r.px = consensus.New(env.ID(), spec, &r.out, opts.ConsensusRetry, r.onDecide)
	r.syncer, _ = env.Log().(storage.Syncer)
	// A fully compacted log has no entries but a checkpoint: still a
	// restart.
	cp, hasCP := r.checkpointAfter(types.Timestamp{})
	r.restarted = hasCP || env.Log().Len() > 0
	if hasCP {
		if restored, err := r.app.TryRestore(cp.State); err == nil && restored {
			r.committed++ // the checkpoint covers ≥ 1 command
		}
	}
	committed, _ := storage.CommittedCommands(env.Log())
	for _, tc := range committed {
		r.app.Execute(types.NoReplica, tc.TS, tc.Cmd) // suppress client replies on replay
		r.committed++
	}
	// The duplicate-kill frontier starts at the log's, which covers a
	// restored checkpoint too, not only the replayed tail: with an empty
	// tail, a late duplicate PREPARE at or below the checkpoint would
	// otherwise slip past the lastCommitted guard and re-execute an
	// already acknowledged command. From here on lastCommitted leads the
	// log (see restoreSnapshot).
	r.lastCommitted = env.Log().LastCommitTS()
	return r
}

// syncBarrier makes every append so far durable (group commit). Its one
// caller is outbox.flush, ahead of every outgoing protocol message. An
// fsync failure is fatal: the log's durability promise is broken in an
// unknowable way (pages may have been dropped), so the replica must
// crash and recover from the log rather than ack on top of it — the
// recovery error contract documented in the README.
func (r *Replica) syncBarrier() {
	if r.syncer == nil {
		return
	}
	if err := r.syncer.Sync(); err != nil {
		panic("core: WAL fsync failed, cannot guarantee acked durability: " + err.Error())
	}
}

// Start installs the periodic timers (Algorithm 2 broadcast and failure
// detection). A restarted replica (see New) then rejoins: the others
// may have reconfigured it out while it was down, and the rejoin
// re-admits it and pulls the history it missed.
func (r *Replica) Start() {
	now := r.env.Clock()
	for _, k := range r.spec {
		r.lastHeard[k] = now
	}
	if d := r.opts.ClockTimeInterval; d > 0 {
		r.env.After(d, r.clockTimeTick)
	}
	if d := r.opts.SuspectTimeout; d > 0 {
		r.env.After(d, r.detectTick)
	}
	if r.restarted {
		r.Rejoin()
	}
}

// Epoch returns the current configuration epoch.
func (r *Replica) Epoch() types.Epoch { return r.epoch }

// Config returns a copy of the current configuration.
func (r *Replica) Config() []types.ReplicaID {
	return append([]types.ReplicaID(nil), r.config...)
}

// InConfig reports whether this replica is part of the current
// configuration.
func (r *Replica) InConfig() bool { return r.inConfig[r.env.ID()] }

// ConfigView implements rsm.Reconfigurable: the installed epoch, a copy
// of the member set, and the local replica's membership.
func (r *Replica) ConfigView() rsm.ConfigView {
	return rsm.ConfigView{Epoch: r.epoch, Members: r.Config(), InConfig: r.InConfig()}
}

// SetConfigListener implements rsm.Reconfigurable. The listener fires on
// the event loop: once per installed configuration (with any locally
// originated commands the reconfiguration discarded), and for each
// command refused because the replica is outside the configuration.
func (r *Replica) SetConfigListener(fn func(ev rsm.ConfigEvent)) { r.onConfig = fn }

// notifyConfig fires the configuration listener with the current view
// and the given discarded local commands.
func (r *Replica) notifyConfig(dropped []types.CommandID) {
	if r.onConfig == nil {
		return
	}
	r.onConfig(rsm.ConfigEvent{View: r.ConfigView(), Dropped: dropped})
}

// Committed returns the number of commands executed so far.
func (r *Replica) Committed() uint64 { return r.committed }

// HeldDropped returns how many future-epoch messages were discarded on
// hold-buffer overflow. Non-zero means a straggler may have a history
// gap only a state transfer can close; see maxHeld. Safe to call from
// any goroutine.
func (r *Replica) HeldDropped() uint64 { return r.heldDropped.Load() }

// SnapRestores returns how many times this replica restored its state
// machine from a peer's shipped snapshot (checkpoint + tail catch-up).
// Safe to call from any goroutine.
func (r *Replica) SnapRestores() uint64 { return r.snapRestores.Load() }

// DebugReconfig renders the reconfiguration machinery's state for test
// diagnostics. Must be called on the event loop (e.g. via node.Node.Do).
func (r *Replica) DebugReconfig() string {
	s := fmt.Sprintf("epoch=%d cfg=%v suspended=%t rejoining=%t target=%d", r.epoch, r.config, r.suspended, r.rejoining, r.rejoinTarget)
	if r.rc != nil {
		s += fmt.Sprintf(" rc=(e=%d propose=%t ok=%b cfg=%v)", r.rc.epoch, r.rc.propose, r.rc.okMask, r.rc.cfg)
	}
	if r.st != nil {
		s += fmt.Sprintf(" st=(e=%d applied=%t ok=%b)", r.st.epoch, r.st.applied, r.st.okMask)
	}
	if len(r.stashed) > 0 {
		s += fmt.Sprintf(" stashed=%d", len(r.stashed))
	}
	s += " px[" + r.px.DebugInstance(uint64(r.epoch+1)) + "]"
	return s
}

// Waits returns how many times the Algorithm 1 line-8 wait actually had
// to block (expected to be rare with reasonable clock skew).
func (r *Replica) Waits() uint64 { return r.waits }

// Checkpoints returns the number of checkpoints taken.
func (r *Replica) Checkpoints() uint64 { return r.checkpoints }

// PendingLen returns the number of uncommitted pending commands.
func (r *Replica) PendingLen() int { return r.pending.Len() }

// NextCommandID allocates a command identifier for a local client.
func (r *Replica) NextCommandID() types.CommandID {
	r.nextSeq++
	return types.CommandID{Origin: r.env.ID(), Seq: r.nextSeq}
}

// Submit handles 〈REQUEST cmd〉 from a local client (Alg. 1 lines 1-3):
// assign the current clock as the command's timestamp and broadcast
// PREPARE to the configuration.
func (r *Replica) Submit(cmd types.Command) {
	if r.suspended {
		r.deferred = append(r.deferred, cmd)
		return
	}
	if !r.inConfig[r.env.ID()] {
		// Removed from the configuration: the command cannot replicate
		// from here. Report it discarded so the runtime can fail the
		// caller (node.ErrNotInConfig) instead of parking it forever.
		r.notifyConfig([]types.CommandID{cmd.ID})
		return
	}
	wall := r.env.Clock()
	// Never propose at or below the commit frontier or a wall already
	// proposed. Commits wait for the local clock (see stable), so the
	// frontier normally trails it — but a state transfer can install a
	// frontier ahead of a lagging clock, and a proposal timestamped
	// below it would be stale-dropped here while replicas whose
	// frontiers still trail it accept and commit it: divergence. The
	// bump keeps proposal walls above everything this replica has
	// announced, which is what the stable-order rule relies on.
	if wall <= r.lastCommitted.Wall {
		wall = r.lastCommitted.Wall + 1
	}
	if wall <= r.lastProposed {
		wall = r.lastProposed + 1
	}
	r.lastProposed = wall
	ts := types.Timestamp{Wall: wall, Node: r.env.ID()}
	r.env.Log().Append(storage.Entry{Kind: storage.KindPrepare, TS: ts, Cmd: cmd})
	r.pending.Add(ts, cmd)
	r.ack(ts, r.env.ID())
	r.observe(r.env.ID(), ts.Wall)
	r.lastSent = ts.Wall
	r.prepSent++
	r.out.broadcast(&msg.Prepare{Epoch: r.epoch, TS: ts, Cmd: cmd, Sent: r.prepSent})
	r.tryCommit()
}

// Deliver routes a protocol message (Alg. 1 upon-clauses, Alg. 2/3
// handlers and the consensus primitive). Outside a batch turn a delivery
// is a turn of its own: even a msg.Batch of many messages triggers a
// single commit scan and one outbox flush.
func (r *Replica) Deliver(from types.ReplicaID, m msg.Message) {
	if r.opts.SuspectTimeout > 0 {
		r.lastHeard[from] = r.env.Clock()
	}
	nested := r.out.turn
	r.out.turn = true
	r.deliverOne(from, m)
	if !nested {
		r.EndBatch()
	}
}

// BeginBatch implements rsm.BatchDeliverer: it opens a batch turn, in
// which outgoing messages queue up and the commit scan is deferred.
func (r *Replica) BeginBatch() { r.out.turn = true }

// EndBatch implements rsm.BatchDeliverer: it closes the batch turn,
// flushes the turn's output and runs the single commit cascade for
// everything delivered in the turn.
func (r *Replica) EndBatch() {
	r.out.turn = false
	r.out.flush()
	r.tryCommit()
}

// outbox is the replica's one ordered way out. Send and broadcast append
// to one queue; flush — at the end of a batch turn, at once when no turn
// is open, and before an epoch install — runs the one covering fsync and
// then emits the queue in order. Unicasts and broadcasts land on the
// same per-peer transport queue, so queue order is link order: nothing
// stamped later (a nudge reply's Sent counter, a SUSPENDOK quoting the
// log) overtakes the PREPAREs it vouches for — the per-sender FIFO the
// stable-order rule and fifoCheck assume — or the fsync covering them.
type outbox struct {
	r *Replica
	// turn is set while a batch turn is open (between BeginBatch and
	// EndBatch, or for the length of one Deliver).
	turn bool
	q    []outMsg
}

// outMsg is one queued message; to is types.NoReplica for a broadcast
// to the configuration.
type outMsg struct {
	to types.ReplicaID
	m  msg.Message
}

// Send queues m for one replica. Exported, like After, because the
// outbox is the consensus.Transport of the reconfiguration Paxos.
func (o *outbox) Send(to types.ReplicaID, m msg.Message) {
	o.q = append(o.q, outMsg{to, m})
	if !o.turn {
		o.flush()
	}
}

// After implements consensus.Transport.
func (o *outbox) After(d time.Duration, fn func()) { o.r.env.After(d, fn) }

// broadcast queues m for the configuration.
func (o *outbox) broadcast(m msg.Message) { o.Send(types.NoReplica, m) }

// sendSpec queues m for every other replica in Spec, configured or not.
func (o *outbox) sendSpec(m msg.Message) {
	for _, k := range o.r.spec {
		if k != o.r.env.ID() {
			o.Send(k, m)
		}
	}
}

// flush emits the queue in order behind one covering fsync. A run of
// consecutive broadcasts leaves as a single msg.Batch — one encode, one
// frame — or bare when the run is one message.
func (o *outbox) flush() {
	if len(o.q) == 0 {
		return
	}
	r := o.r
	r.syncBarrier()
	for i := 0; i < len(o.q); {
		m := o.q[i].m
		if to := o.q[i].to; to != types.NoReplica {
			r.env.Send(to, m)
			i++
			continue
		}
		run := i + 1
		for run < len(o.q) && o.q[run].to == types.NoReplica {
			run++
		}
		if run-i > 1 {
			packed := make([]msg.Message, 0, run-i)
			for _, e := range o.q[i:run] {
				packed = append(packed, e.m)
			}
			m = &msg.Batch{Msgs: packed}
		}
		rsm.Broadcast(r.env, r.config, m)
		i = run
	}
	clear(o.q)
	o.q = o.q[:0]
}

// heldMsg is one future-epoch message parked until its epoch installs.
type heldMsg struct {
	epoch types.Epoch
	from  types.ReplicaID
	m     msg.Message
}

// maxHeld caps the future-epoch buffer. The in-flight windows of the
// senders bound the PREPAREs outstanding during an install-skew window,
// so the cap is a backstop, not a working limit.
const maxHeld = 1 << 16

// hold parks a future-epoch message for redelivery at install. On
// overflow the oldest message is dropped and the replica marks itself
// for catch-up: the next install schedules a Rejoin whose state
// transfer repairs the gap the drop may have opened (state transfer on
// overflow, instead of silent permanent divergence).
func (r *Replica) hold(epoch types.Epoch, from types.ReplicaID, m msg.Message) {
	if len(r.held) >= maxHeld {
		copy(r.held, r.held[1:])
		r.held[len(r.held)-1] = heldMsg{}
		r.held = r.held[:len(r.held)-1]
		r.heldDropped.Add(1)
		r.needCatchup = true
	}
	r.held = append(r.held, heldMsg{epoch: epoch, from: from, m: cloneHeld(m)})
}

// cloneHeld deep-copies a hot-path message before it is parked past the
// end of its delivery: the original may live in pooled decode storage
// (msg.DecodeRecycled) that is recycled when Deliver returns. Messages
// of other types own their memory and are retained as-is.
func cloneHeld(m msg.Message) msg.Message {
	switch mm := m.(type) {
	case *msg.Prepare:
		c := *mm
		c.Cmd.Payload = append([]byte(nil), mm.Cmd.Payload...)
		return &c
	case *msg.PrepareOK:
		c := *mm
		return &c
	case *msg.ClockTime:
		c := *mm
		return &c
	}
	return m
}

// HeldLen returns the number of future-epoch messages parked for
// redelivery (empty in steady state).
func (r *Replica) HeldLen() int { return len(r.held) }

// redeliverHeld replays parked messages whose epoch has just been
// installed, drops those from skipped epochs, and keeps the rest. It
// runs at the end of finishApply, with the new configuration in force.
func (r *Replica) redeliverHeld() {
	if len(r.held) == 0 {
		return
	}
	pending := r.held
	r.held = nil
	for i, h := range pending {
		switch {
		case h.epoch == r.epoch:
			r.deliverOne(h.from, h.m)
		case h.epoch > r.epoch:
			r.held = append(r.held, h)
		}
		pending[i] = heldMsg{}
	}
}

// deliverOne dispatches one protocol message (a msg.Batch as the
// messages packed in it). Data messages tagged with a future epoch are
// parked until the matching reconfiguration decision installs (see hold).
func (r *Replica) deliverOne(from types.ReplicaID, m msg.Message) {
	if r.px.Deliver(from, m) {
		return
	}
	switch mm := m.(type) {
	case *msg.Batch:
		for _, sub := range mm.Msgs {
			r.deliverOne(from, sub)
		}
	case *msg.Prepare:
		if mm.Epoch > r.epoch {
			r.hold(mm.Epoch, from, m)
			return
		}
		r.onPrepare(from, mm)
	case *msg.PrepareOK:
		if mm.Epoch > r.epoch {
			r.hold(mm.Epoch, from, m)
			return
		}
		r.onPrepareOK(from, mm)
	case *msg.ClockTime:
		if mm.Epoch > r.epoch {
			r.hold(mm.Epoch, from, m)
			return
		}
		r.onClockTime(from, mm)
	case *msg.ClockReq:
		r.onClockReq(from, mm)
	case *msg.Suspend:
		r.onSuspend(from, mm)
	case *msg.SuspendOK:
		r.onSuspendOK(from, mm)
	case *msg.RetrieveCmds:
		r.onRetrieveCmds(from, mm)
	case *msg.RetrieveReply:
		r.onRetrieveReply(from, mm)
	}
}

// onPrepare handles 〈PREPARE cmd, ts〉 from rk (Alg. 1 lines 4-10). The
// PREPARE doubles as rk's own logging acknowledgement: rk appends to its
// log before broadcasting, so receivers count it toward majority
// replication without waiting for rk's PREPAREOK. rk's PREPARE carries
// rk's timestamp; one naming another origin is malformed and dropped, or
// its implicit acknowledgement would vouch for the wrong origin.
func (r *Replica) onPrepare(from types.ReplicaID, m *msg.Prepare) {
	if m.Epoch != r.epoch || r.suspended || m.TS.Node != from {
		return
	}
	if !r.fifoCheck(from, m.Sent, true) {
		return
	}
	if m.TS.LessEq(r.lastCommitted) {
		return // late duplicate of an already-committed command
	}
	// The PREPARE may be backed by pooled decode storage that is
	// recycled when this delivery returns (msg.DecodeRecycled), so
	// everything retained past this call — the command entering the
	// pending set and the log, the timestamp captured by the wait
	// closure below — is copied out of the message here.
	ts := m.TS
	cmd := m.Cmd
	if len(cmd.Payload) > 0 {
		cmd.Payload = append([]byte(nil), cmd.Payload...)
	} else if cmd.Payload != nil {
		cmd.Payload = []byte{}
	}
	if !r.pending.Add(ts, cmd) {
		return // duplicate delivery
	}
	r.ack(ts, from)
	r.observe(from, ts.Wall)
	r.env.Log().Append(storage.Entry{Kind: storage.KindPrepare, TS: ts, Cmd: cmd})
	// Line 8: wait until ts < Clock. The local clock is strictly
	// increasing, so with synchronized clocks the wait never blocks; a
	// fast remote clock (skew) forces a short delay before
	// acknowledging, preserving the promise that this replica never
	// sends a timestamp smaller than one it acknowledged.
	if r.env.Clock() > ts.Wall {
		r.ackPrepare(ts)
		return
	}
	r.waits++
	epoch := r.epoch
	var retry func()
	retry = func() {
		if r.epoch != epoch || r.suspended {
			return
		}
		if r.env.Clock() > ts.Wall {
			r.ackPrepare(ts)
			r.tryCommit()
			return
		}
		r.env.After(time.Microsecond, retry)
	}
	r.env.After(time.Duration(ts.Wall-r.env.Clock())+time.Microsecond, retry)
}

// ackPrepare logs locally done; broadcast 〈PREPAREOK ts, clockTs〉 to the
// configuration and count our own acknowledgement (Alg. 1 lines 9-10).
// Inside a batch turn consecutive acknowledgements leave as one
// msg.Batch.
func (r *Replica) ackPrepare(ts types.Timestamp) {
	clockTS := r.env.Clock()
	r.lastSent = clockTS
	r.out.broadcast(&msg.PrepareOK{Epoch: r.epoch, TS: ts, ClockTS: clockTS, Sent: r.prepSent})
	r.ack(ts, r.env.ID())
	r.tryCommit()
}

// onPrepareOK handles 〈PREPAREOK ts, clockTs〉 from rk (Alg. 1 lines
// 11-13). One naming an origin outside Spec is malformed and dropped.
func (r *Replica) onPrepareOK(from types.ReplicaID, m *msg.PrepareOK) {
	if m.Epoch != r.epoch || r.suspended || m.TS.Node < 0 || int(m.TS.Node) >= len(r.spec) {
		return
	}
	if !r.fifoCheck(from, m.Sent, false) {
		return
	}
	r.observe(from, m.ClockTS)
	r.ack(m.TS, from)
	r.tryCommit()
}

// onClockTime handles 〈CLOCKTIME ts〉 (Alg. 2 lines 4-5).
func (r *Replica) onClockTime(from types.ReplicaID, m *msg.ClockTime) {
	if m.Epoch != r.epoch || r.suspended {
		return
	}
	if !r.fifoCheck(from, m.Sent, false) {
		return
	}
	r.observe(from, m.TS)
	r.tryCommit()
}

// onClockReq answers a peer's idle-read nudge with an immediate unicast
// 〈CLOCKTIME clock〉. The reply deliberately does not update lastSent:
// it is an extra clock sample for one impatient reader, not a
// substitute for the periodic broadcast every other replica still needs
// within Δ. Its Sent counter vouches for every PREPARE stamped so far,
// so it queues behind them in the outbox. Stale-epoch requests are
// dropped — the nudge is an optimization, never a correctness dependency.
func (r *Replica) onClockReq(from types.ReplicaID, m *msg.ClockReq) {
	if m.Epoch != r.epoch || r.suspended || !r.inConfig[r.env.ID()] {
		return
	}
	r.nudgeReplies++
	r.out.Send(from, &msg.ClockTime{Epoch: r.epoch, TS: r.env.Clock(), Sent: r.prepSent})
}

// NudgeClock broadcasts 〈CLOCKREQ〉 asking every peer for an immediate
// CLOCKTIME. The node layer calls it when a linearizable read parks
// waiting for the stable frontier on an otherwise idle cluster: instead
// of paying the remainder of the Δ interval plus a one-way delay, the
// read completes after one round trip (Section IV's idle latency
// floor). Re-requests within Δ/4 coalesce into the outstanding one.
// The nudge is part of the CLOCKTIME extension: Δ = 0 means the
// extension is disabled and the protocol stays quiescent, so no
// CLOCKREQ goes out either. Must be invoked from the replica's event
// loop, like Submit.
func (r *Replica) NudgeClock() {
	if r.opts.ClockTimeInterval == 0 || r.suspended || !r.inConfig[r.env.ID()] {
		return
	}
	now := r.env.Clock()
	quiet := int64(r.opts.ClockTimeInterval) / 4
	if r.lastNudge != 0 && now < r.lastNudge+quiet {
		return
	}
	r.lastNudge = now
	r.nudges++
	r.out.broadcast(&msg.ClockReq{Epoch: r.epoch})
}

// Nudges returns how many CLOCKREQ broadcasts this replica sent for
// parked linearizable reads.
func (r *Replica) Nudges() uint64 { return r.nudges }

// NudgeReplies returns how many peers' CLOCKREQs this replica answered
// with an immediate CLOCKTIME.
func (r *Replica) NudgeReplies() uint64 { return r.nudgeReplies }

// clockTimeTick implements Algorithm 2 line 1: broadcast the clock if
// nothing carrying a newer timestamp was sent in the last Δ.
func (r *Replica) clockTimeTick() {
	d := r.opts.ClockTimeInterval
	now := r.env.Clock()
	if !r.suspended && r.inConfig[r.env.ID()] && now >= r.lastSent+int64(d) {
		r.lastSent = now
		r.out.broadcast(&msg.ClockTime{Epoch: r.epoch, TS: now, Sent: r.prepSent})
	}
	// Retry the commit scan: when the head waits only on the local
	// clock (stable's own-clock term) no peer message is guaranteed to
	// arrive and re-trigger it, so the tick is the wakeup.
	r.tryCommit()
	r.env.After(d, r.clockTimeTick)
}

// fifoCheck enforces the loss-free FIFO channel assumption the
// stable-order rule rests on, using the cumulative per-epoch PREPARE
// counter every data message carries (see msg.Prepare.Sent). A counter
// ahead of this replica's receive count proves a PREPARE from that
// sender was lost in transit — the transports are best-effort, and
// injected faults or overload can drop frames. Processing the message
// anyway would advance the sender's latest-time entry over the hole,
// letting the commit scan run past commands this replica never saw:
// silent divergence, and stale linearizable reads once the watermark
// thaws. Instead the replica suspends itself into a Rejoin, whose
// command collection and state transfer recover everything a majority
// logged; the epoch install then resets the counters on both sides.
// Returns false when the message must not be processed. A zero counter
// (hand-built messages in unit tests) is exempt and never signals a
// gap. prepare distinguishes the PREPARE itself, which advances the
// receive count, from the messages that merely assert it.
func (r *Replica) fifoCheck(from types.ReplicaID, sent uint64, prepare bool) bool {
	if sent == 0 {
		return true
	}
	recv := r.prepRecv[from]
	if prepare {
		if sent <= recv+1 {
			if sent == recv+1 {
				r.prepRecv[from] = sent
			}
			return true
		}
	} else if sent <= recv {
		return true
	}
	r.linkGaps.Add(1)
	r.Rejoin()
	return false
}

// LinkGaps returns how many proven channel breaks (lost PREPAREs
// detected by the Sent counters) this replica repaired via Rejoin. Safe
// to call from any goroutine.
func (r *Replica) LinkGaps() uint64 { return r.linkGaps.Load() }

// observe folds a timestamp from replica k into LatestTV. Senders emit
// monotonically increasing timestamps over FIFO links, so max() only
// guards against duplicates.
func (r *Replica) observe(k types.ReplicaID, wall int64) {
	if wall > r.latestTV[k] {
		r.latestTV[k] = wall
	}
}

// ack records that replica k logged every PREPARE of origin ts.Node up
// to ts.Wall this epoch (see acked).
func (r *Replica) ack(ts types.Timestamp, k types.ReplicaID) {
	r.acked[k][ts.Node] = max(r.acked[k][ts.Node], ts.Wall)
}

// stable reports the stable-order condition (Alg. 1 line 22): no replica
// in the configuration can still send a message with a timestamp smaller
// than ts. The timestamp vector includes our own entry — the local
// clock. It is not redundant: a replica whose clock has fallen behind
// (paused, rolled back and pinned by the monotonic wrapper) could
// otherwise commit peers' commands past its own clock on the strength
// of their TV entries alone, and its next Submit would then timestamp a
// command below its own commit frontier — a command the local scan
// drops as a stale duplicate while the peers, whose frontiers still
// trail it, accept and commit it. Waiting for the local clock keeps the
// frontier behind anything this replica might yet propose.
func (r *Replica) stable(ts types.Timestamp) bool {
	if r.env.Clock() <= ts.Wall {
		return false
	}
	for _, k := range r.config {
		if k == r.env.ID() {
			continue
		}
		if r.latestTV[k] < ts.Wall {
			return false
		}
	}
	return true
}

// StableTS implements rsm.StateReader: the executed watermark. Commits
// happen strictly in timestamp order, so everything at or below the
// commit frontier has executed; what bounds the watermark is what could
// still commit. No configured replica can send a timestamp below its
// LatestTV entry (senders emit strictly increasing clock readings over
// FIFO links — the same reasoning as the stable-order rule, Alg. 1 line
// 22), our own clock is strictly increasing past this reading, and a
// pending command is by definition not yet executed. Hence:
//
//	W = min( Clock, min over other configured replicas of LatestTV,
//	         smallest pending timestamp − 1 )
//
// While suspended for a reconfiguration the watermark freezes at the
// commit frontier: the state transfer may execute commands between the
// frontier and LatestTV, so nothing above the frontier is stable until
// the new configuration installs (after which LatestTV restarts from
// the decision baseline and the watermark recovers as members speak).
func (r *Replica) StableTS() int64 {
	if r.suspended {
		return r.lastCommitted.Wall
	}
	w := r.env.Clock()
	self := r.env.ID()
	for _, k := range r.config {
		if k == self {
			continue
		}
		if tv := r.latestTV[k]; tv < w {
			w = tv
		}
	}
	if r.pending.Len() > 0 {
		if h := r.pending.Min().ts.Wall - 1; h < w {
			w = h
		}
	}
	return w
}

// SetStableListener implements rsm.StateReader. The listener fires on
// the event loop at the end of every turn in which the watermark may
// have advanced (each commit scan, and each reconfiguration install).
func (r *Replica) SetStableListener(fn func()) { r.onStable = fn }

// notifyStable fires the watermark listener, if installed.
func (r *Replica) notifyStable() {
	if r.onStable != nil {
		r.onStable()
	}
}

// tryCommit commits pending commands from the head of the timestamp
// order while all three conditions of COMMITTED(ts) hold (Alg. 1 lines
// 14-23): majority replication, stable order, and — by virtue of
// committing strictly in timestamp order from the pending set's head —
// prefix replication. During a batch turn the scan is deferred: EndBatch
// (or the end of a msg.Batch delivery) runs it once for the whole burst.
// Every completed scan fires the watermark listener: even without
// commits, the LatestTV observations folded in this turn may have
// advanced the executed watermark.
func (r *Replica) tryCommit() {
	if r.suspended || r.out.turn {
		return
	}
	r.commitScan()
	r.notifyStable()
}

// commitScan is the commit cascade of tryCommit. Majority replication
// counts the replicas whose acknowledgement watermark for the head's
// origin covers the head (see acked).
func (r *Replica) commitScan() {
	maj := types.Majority(len(r.spec))
	for r.pending.Len() > 0 {
		head := r.pending.Min()
		if head.ts.LessEq(r.lastCommitted) {
			// Stale entry from before a reconfiguration installed newer
			// commits; its command is either already executed or lost.
			r.pending.PopMin()
			continue
		}
		logged := 0
		for _, a := range r.acked {
			if a[head.ts.Node] >= head.ts.Wall {
				logged++
			}
		}
		if logged < maj || !r.stable(head.ts) {
			return
		}
		r.pending.PopMin()
		r.env.Log().Append(storage.Entry{Kind: storage.KindCommit, TS: head.ts})
		r.lastCommitted = head.ts
		r.committed++
		r.app.Execute(r.env.ID(), head.ts, head.cmd)
		r.maybeCheckpoint()
	}
}

// maybeCheckpoint takes a snapshot every CheckpointEvery commands and
// compacts the log through it (Section V-B). It runs immediately after
// executing a command, so the snapshot covers exactly the committed
// prefix up to the commit frontier.
func (r *Replica) maybeCheckpoint() {
	if r.opts.CheckpointEvery <= 0 {
		return
	}
	r.sinceCheckpoint++
	if r.sinceCheckpoint >= r.opts.CheckpointEvery {
		r.checkpointNow()
	}
}

// detectTick is the timeout failure detector (Section II-A) and its one
// timer: the scan (suspect) suspects configured replicas not heard from
// within SuspectTimeout, triggering a reconfiguration that removes them,
// and returns the re-arm delay: 1ms past the earliest configured peer's
// deadline lastHeard[k] + SuspectTimeout (the 1ms keeps a firing at a
// deadline from spinning), at most SuspectTimeout: suspended,
// unconfigured, clock stepped back.
func (r *Replica) detectTick() { r.env.After(r.suspect(), r.detectTick) }

// PeerDown is the transport's report that k's process exited: k's
// deadline expires and the scan runs now. A no-op with the detector off,
// for self or an unconfigured k, and while suspended.
func (r *Replica) PeerDown(k types.ReplicaID) {
	timeout := int64(r.opts.SuspectTimeout)
	if timeout == 0 || k == r.env.ID() || !r.inConfig[k] || r.suspended {
		return
	}
	r.lastHeard[k] = min(r.lastHeard[k], r.env.Clock()-timeout-1)
	r.suspect()
}

func (r *Replica) suspect() time.Duration {
	timeout := int64(r.opts.SuspectTimeout)
	now := r.env.Clock()
	wait := timeout
	if !r.suspended && r.inConfig[r.env.ID()] {
		var next []types.ReplicaID
		for _, k := range r.config {
			left := r.lastHeard[k] + timeout - now
			switch {
			case k == r.env.ID():
			case left < 0:
				continue // suspected
			default:
				wait = min(wait, left+int64(time.Millisecond))
			}
			next = append(next, k)
		}
		if len(next) < len(r.config) && len(next) >= types.Majority(len(r.spec)) {
			r.Reconfigure(next)
		}
	}
	return time.Duration(wait)
}
