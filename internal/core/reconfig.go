package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/bits"
	"slices"
	"sort"

	"clockrsm/internal/consensus"
	"clockrsm/internal/msg"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// reconfigInit tracks an in-progress RECONFIGURE initiated locally
// (Alg. 3 lines 1-6).
type reconfigInit struct {
	epoch   types.Epoch
	cts     types.Timestamp
	cfg     []types.ReplicaID
	okMask  uint64
	cmds    map[types.Timestamp]types.Command
	propose bool
	// Best snapshot shipped with a SUSPENDOK: a responder that compacted
	// part of the (cts, ∞) range cannot return those commands, so the
	// initiator restores the snapshot before applying its own decision.
	snap   []byte
	snapTS types.Timestamp
}

// decision is a decoded consensus outcome (Alg. 3 line 11).
type decision struct {
	epoch types.Epoch
	cfg   []types.ReplicaID
	ts    types.Timestamp
	cmds  []msg.TimestampedCommand
	// snapTS is the newest checkpoint timestamp among the SUSPENDOK
	// responders (zero if none shipped a snapshot). The decision's cmds
	// are complete only above snapTS: a responder whose checkpoint
	// compacted part of (ts, snapTS] contributed a snapshot instead of
	// those commands, and the snapshot travels only to the initiator.
	// Every replica applying the decision with a commit frontier below
	// snapTS must therefore catch up via state transfer — the transfer
	// responders re-ship checkpoint + tail — or it would silently skip
	// the compacted commands and diverge.
	snapTS types.Timestamp
}

// stateTransfer tracks an in-progress STATETRANSFER (Alg. 3 lines
// 25-28) fetching committed commands this replica is missing.
type stateTransfer struct {
	epoch   types.Epoch
	dec     *decision
	from    types.Timestamp
	to      types.Timestamp
	okMask  uint64
	cmds    map[types.Timestamp]types.Command
	applied bool
	// Best snapshot received: replaces replaying commands ≤ snapTS when
	// a responder compacted part of the requested range (Section V-B).
	snap   []byte
	snapTS types.Timestamp
}

// Reconfigure triggers the reconfiguration protocol with a proposed new
// configuration (Alg. 3 RECONFIGURE). It is invoked by the failure
// detector on suspicion, or explicitly (e.g. by a recovered replica
// rejoining via Rejoin).
func (r *Replica) Reconfigure(confignew []types.ReplicaID) {
	e := r.epoch + 1
	if r.rc != nil && r.rc.epoch >= e {
		return // already reconfiguring toward this epoch or later
	}
	cts := r.env.Log().LastCommitTS()
	r.suspended = true
	r.rc = &reconfigInit{
		epoch: e,
		cts:   cts,
		cfg:   append([]types.ReplicaID(nil), confignew...),
		cmds:  make(map[types.Timestamp]types.Command),
	}
	// Our own SUSPENDOK contribution.
	r.rc.okMask |= 1 << uint(r.env.ID())
	for _, tc := range r.env.Log().CommandsAfter(cts) {
		r.rc.cmds[tc.TS] = tc.Cmd
	}
	r.out.sendSpec(&msg.Suspend{Epoch: e, CTS: cts})
	r.maybePropose()
}

// Rejoin forces this replica back into the configuration: it proposes
// the current configuration plus itself for a strictly newer epoch, the
// rejoin's target. A recovered replica may hold an arbitrarily stale
// view of the epoch (possibly believing it is still configured), so an
// attempt either succeeds or teaches the replica the newer epochs (via
// the Learn reply to its stale SUSPEND); one retry chain re-proposes
// until the target has installed with this replica configured.
// Idempotent: a call while the target is not yet installed is absorbed
// by the rejoin in flight; a later call targets the next epoch, forcing
// one more reconfiguration.
func (r *Replica) Rejoin() {
	if r.rejoining && r.epoch < r.rejoinTarget {
		return
	}
	r.rejoinTarget = r.epoch + 1
	if !r.rejoining {
		r.rejoining = true
		retry := r.opts.ConsensusRetry
		if retry <= 0 {
			retry = consensus.DefaultRetryTimeout
		}
		r.env.After(2*retry, r.retryRejoin)
	}
	cfg := append([]types.ReplicaID(nil), r.config...)
	if !slices.Contains(cfg, r.env.ID()) {
		cfg = append(cfg, r.env.ID())
		slices.Sort(cfg)
	}
	r.rc = nil // a rejoin supersedes any stale attempt
	r.Reconfigure(cfg)
}

// retryRejoin is the rejoin's retry chain: done once the target has
// installed with this replica configured, and otherwise it proposes
// again. The target stays put while it is not installed (it is always
// the epoch after the one it was set at).
func (r *Replica) retryRejoin() {
	r.rejoining = false
	if r.epoch < r.rejoinTarget || !r.inConfig[r.env.ID()] || r.suspended {
		r.Rejoin()
	}
}

// onSuspend handles 〈SUSPEND e, cts〉 (Alg. 3 lines 7-10): freeze the
// log and return every logged command newer than cts.
func (r *Replica) onSuspend(from types.ReplicaID, m *msg.Suspend) {
	if m.Epoch <= r.epoch {
		// Stale attempt: the sender lags (e.g. it recovered after missing
		// reconfigurations). Teach it every decision from that epoch
		// forward, so a replica that missed many reconfigurations catches
		// up in one round instead of one epoch per retry.
		for e := uint64(m.Epoch); ; e++ {
			v, ok := r.px.Decided(e)
			if !ok {
				break
			}
			r.out.Send(from, &msg.Learn{Instance: e, Value: v})
		}
		return
	}
	r.suspended = true
	ok := &msg.SuspendOK{Epoch: m.Epoch}
	low := m.CTS
	// A checkpoint newer than the requested baseline swallowed part of
	// the range; the command list alone would silently omit those
	// commands, so ship the snapshot covering them (Section V-B), as the
	// state-transfer reply does.
	if cp, covers := r.checkpointAfter(m.CTS); covers {
		ok.HasSnap, ok.SnapTS, ok.Snap = true, cp.TS, cp.State
		low = cp.TS
	}
	ok.Cmds = r.env.Log().CommandsAfter(low)
	r.out.Send(from, ok)
}

// onSuspendOK collects SUSPENDOK replies (Alg. 3 line 5); once a
// majority of Spec answered, the union of commands is proposed to
// consensus (line 6).
func (r *Replica) onSuspendOK(from types.ReplicaID, m *msg.SuspendOK) {
	if r.rc == nil || m.Epoch != r.rc.epoch || r.rc.propose {
		return
	}
	r.rc.okMask |= 1 << uint(from)
	for _, tc := range m.Cmds {
		r.rc.cmds[tc.TS] = tc.Cmd
	}
	if m.HasSnap && r.rc.snapTS.Less(m.SnapTS) {
		r.rc.snap = m.Snap
		r.rc.snapTS = m.SnapTS
	}
	r.maybePropose()
}

// maybePropose starts consensus once a majority of Spec is suspended.
func (r *Replica) maybePropose() {
	if r.rc == nil || r.rc.propose {
		return
	}
	if bits.OnesCount64(r.rc.okMask) < types.Majority(len(r.spec)) {
		return
	}
	r.rc.propose = true
	val := encodeProposal(r.rc.cfg, r.rc.cts, r.rc.snapTS, sortedCmds(r.rc.cmds))
	r.px.Propose(uint64(r.rc.epoch), val)
}

// onDecide is the DECIDE upcall from the consensus primitive (Alg. 3
// lines 11-24). Decisions apply strictly in epoch order; replicas that
// lag first fetch missing committed commands via STATETRANSFER.
func (r *Replica) onDecide(instance uint64, value []byte) {
	d, err := decodeProposal(value)
	if err != nil {
		return // cannot happen with our own encoder; ignore corrupt value
	}
	d.epoch = types.Epoch(instance)
	r.stashed[d.epoch] = d
	r.drainDecisions()
}

// drainDecisions applies every stashed decision that is next in epoch
// order.
func (r *Replica) drainDecisions() {
	if r.st != nil && !r.st.applied {
		return // a state transfer for the current decision is in flight
	}
	for {
		d, ok := r.stashed[r.epoch+1]
		if !ok {
			return
		}
		if !r.beginApply(d) {
			return // waiting for state transfer
		}
	}
}

// beginApply starts applying decision d, returning false if a state
// transfer must complete first.
func (r *Replica) beginApply(d *decision) bool {
	r.suspended = true
	// If this replica initiated the reconfiguration and a SUSPENDOK
	// shipped a snapshot ahead of our commit frontier, restore it before
	// measuring the lag: the responders' checkpoints swallowed commands
	// the decision's list cannot carry, and the snapshot covers them.
	if r.rc != nil && r.rc.epoch == d.epoch {
		r.restoreSnapshot(r.rc.snap, r.rc.snapTS)
	}
	cts := r.lastCommitted
	// The decision's command list is complete only above d.snapTS (see
	// decision.snapTS): a frontier below that must be repaired by state
	// transfer even when it already covers the decision baseline d.ts,
	// or the commands a responder's checkpoint compacted would be
	// skipped here and executed elsewhere — diverging histories.
	need := d.ts
	if need.Less(d.snapTS) {
		need = d.snapTS
	}
	if cts.Less(need) {
		// This replica lags behind the decision baseline: fetch committed
		// commands in (cts, need] from a majority (Alg. 3 lines 13-14).
		r.st = &stateTransfer{
			epoch: d.epoch,
			dec:   d,
			from:  cts,
			to:    need,
			cmds:  make(map[types.Timestamp]types.Command),
		}
		// Our own log answers immediately.
		r.st.okMask |= 1 << uint(r.env.ID())
		for _, tc := range r.env.Log().CommandsBetween(cts, need) {
			r.st.cmds[tc.TS] = tc.Cmd
		}
		r.out.sendSpec(&msg.RetrieveCmds{From: cts, To: need, Seq: uint64(d.epoch)})
		if bits.OnesCount64(r.st.okMask) >= types.Majority(len(r.spec)) {
			r.finishApply(d, sortedCmds(r.st.cmds))
			return true
		}
		return false
	}
	r.finishApply(d, nil)
	return true
}

// catchupSnapshotThreshold is the tail length above which a
// state-transfer responder takes an on-demand checkpoint so catch-up
// ships snapshot + short tail instead of a long command replay. A
// variable so tests can lower it.
var catchupSnapshotThreshold = 256

// onRetrieveCmds serves a state-transfer request (Alg. 3 lines 29-31).
// Served regardless of suspension or epoch: logs are stable. If part of
// the requested range was compacted into a checkpoint, the snapshot is
// shipped along with the commands above it; if the requester is far
// behind and no checkpoint covers the gap yet, one is taken on demand,
// so a lagging or restarted replica always catches up via checkpoint +
// tail rather than replaying history since genesis.
func (r *Replica) onRetrieveCmds(from types.ReplicaID, m *msg.RetrieveCmds) {
	if r.shouldSnapshotFor(m.From) {
		r.checkpointNow()
	}
	reply := &msg.RetrieveReply{Seq: m.Seq}
	low := m.From
	if cp, covers := r.checkpointAfter(m.From); covers {
		reply.HasSnap, reply.SnapTS, reply.Snap = true, cp.TS, cp.State
		if low = cp.TS; m.To.Less(low) {
			low = m.To
		}
	}
	reply.Cmds = r.env.Log().CommandsBetween(low, m.To)
	r.out.Send(from, reply)
}

// shouldSnapshotFor reports whether serving a transfer from baseline
// `from` warrants an on-demand checkpoint: checkpointing is enabled,
// the application supports snapshots, no existing checkpoint already
// covers part of the gap, and the committed tail above the baseline is
// long. Gated on CheckpointEvery so a cluster that never opted into
// checkpointing keeps pure command-replay catch-up — every replica
// executes every command individually — instead of being silently
// switched to snapshot semantics by one slow transfer.
func (r *Replica) shouldSnapshotFor(from types.Timestamp) bool {
	if r.opts.CheckpointEvery <= 0 {
		return false
	}
	if _, covers := r.checkpointAfter(from); covers {
		return false // existing checkpoint already covers the gap
	}
	if !from.Less(r.lastCommitted) {
		return false // nothing committed beyond the requester
	}
	return len(r.env.Log().CommandsBetween(from, r.lastCommitted)) >= catchupSnapshotThreshold
}

// checkpointAfter returns the log's newest checkpoint if it is newer
// than ts, i.e. if it swallowed commands a peer at ts still needs.
func (r *Replica) checkpointAfter(ts types.Timestamp) (storage.Checkpoint, bool) {
	if cpr, ok := r.env.Log().(storage.Checkpointer); ok {
		if cp, ok := cpr.LastCheckpoint(); ok && ts.Less(cp.TS) {
			return cp, true
		}
	}
	return storage.Checkpoint{}, false
}

// checkpointNow takes an immediate snapshot at the commit frontier and
// compacts the log through it. Best-effort: on failure the uncompacted
// log stays and the next commit tries again.
func (r *Replica) checkpointNow() {
	cpr, ok := r.env.Log().(storage.Checkpointer)
	if !ok {
		return
	}
	state, ok := r.app.TrySnapshot()
	if !ok {
		return
	}
	if err := cpr.WriteCheckpoint(storage.Checkpoint{TS: r.lastCommitted, State: state}); err != nil {
		return
	}
	r.sinceCheckpoint = 0
	r.checkpoints++
}

// onRetrieveReply collects state-transfer responses until a majority of
// Spec answered. Only replies tagged with the transfer's epoch count: a
// late reply to the previous epoch's transfer covers an older range, and
// counting it toward the majority would install the decision without the
// commands in between.
func (r *Replica) onRetrieveReply(from types.ReplicaID, m *msg.RetrieveReply) {
	st := r.st
	if st == nil || st.applied || m.Seq != uint64(st.epoch) {
		return
	}
	st.okMask |= 1 << uint(from)
	for _, tc := range m.Cmds {
		// Only the requested range matters; a stale reply from an older
		// transfer could carry other timestamps.
		if st.from.Less(tc.TS) && tc.TS.LessEq(st.to) {
			st.cmds[tc.TS] = tc.Cmd
		}
	}
	if m.HasSnap && st.snapTS.Less(m.SnapTS) {
		st.snap = m.Snap
		st.snapTS = m.SnapTS
	}
	if bits.OnesCount64(st.okMask) >= types.Majority(len(r.spec)) {
		st.applied = true
		// Restore the newest received snapshot before applying commands;
		// it covers every command ≤ snapTS that some responder compacted.
		r.restoreSnapshot(st.snap, st.snapTS)
		r.finishApply(st.dec, sortedCmds(st.cmds))
		r.drainDecisions()
	}
}

// restoreSnapshot replaces the state machine with a peer's snapshot
// taken at ts, if it is ahead of the commit frontier. lastCommitted moves
// to ts with the state, whatever the log makes of the checkpoint:
// finishApply skips by it, so a command the snapshot already holds is
// never executed a second time on top of it — which a failed checkpoint
// write, leaving the log's LastCommitTS behind, used to allow. The log
// then lacks what the snapshot covers, so the next commit retries the
// checkpoint instead of waiting out the interval.
func (r *Replica) restoreSnapshot(snap []byte, ts types.Timestamp) {
	if snap == nil || !r.lastCommitted.Less(ts) {
		return
	}
	if restored, err := r.app.TryRestore(snap); err != nil || !restored {
		return
	}
	r.lastCommitted = ts
	r.committed++
	r.snapRestores.Add(1)
	r.sinceCheckpoint = r.opts.CheckpointEvery
	r.checkpointNow()
}

// finishApply installs decision d (Alg. 3 lines 15-24): discard
// uncommitted PREPAREs newer than the baseline, execute every decided
// command not yet executed in timestamp order, install the new epoch and
// configuration, and resume.
func (r *Replica) finishApply(d *decision, transferred []msg.TimestampedCommand) {
	lg := r.env.Log()
	// Locally originated commands still pending here are candidates for
	// discard (line 15 prunes their PREPAREs): any of them absent from
	// the decision (and the transferred prefix) was seen by no SUSPENDOK
	// majority, so no replica can ever commit it in any epoch — it is
	// reported dropped below, and the client may safely resubmit.
	var candidates []types.CommandID
	if r.onConfig != nil {
		own := r.pending.q[r.env.ID()]
		for _, e := range own.buf[own.head:] {
			if e.cmd.ID.Origin == r.env.ID() {
				candidates = append(candidates, e.cmd.ID)
			}
		}
	}
	// Line 15: remove uncommitted PREPAREs — all of them, not only those
	// above the baseline. Their commands either appear in `all` below
	// (they could have committed; their PREPAREs are re-appended as they
	// execute) or are lost and reported dropped; clients resubmit. An
	// uncommitted PREPARE below the baseline is stale cross-epoch junk
	// (within one epoch no replica's commit point passes a pending
	// timestamp): left in the log, a later state transfer would serve it
	// and the transferring replica would execute a command no other
	// replica has — diverging histories and double-executing a command
	// already reported dropped.
	lg.RemovePrepares(types.Timestamp{})
	r.pending.Clear()

	// Lines 16-20: apply transferred commands (all ≤ d.ts) then decided
	// commands (> d.ts) in timestamp order, skipping anything already
	// executed. Execution is prefix-closed in timestamp order, so one
	// comparison against lastCommitted — not the log's LastCommitTS, which
	// a restored snapshot can be ahead of — identifies executed commands.
	all := make([]msg.TimestampedCommand, 0, len(transferred)+len(d.cmds))
	all = append(all, transferred...)
	all = append(all, d.cmds...)
	sort.Slice(all, func(i, j int) bool { return all[i].TS.Less(all[j].TS) })
	var dropped []types.CommandID
	if len(candidates) > 0 {
		decided := make(map[types.CommandID]bool, len(all))
		for _, tc := range all {
			decided[tc.Cmd.ID] = true
		}
		for _, id := range candidates {
			if !decided[id] {
				dropped = append(dropped, id)
			}
		}
	}
	cts := r.lastCommitted
	for _, tc := range all {
		if tc.TS.LessEq(cts) {
			continue
		}
		if !lg.HasPrepare(tc.TS) {
			lg.Append(storage.Entry{Kind: storage.KindPrepare, TS: tc.TS, Cmd: tc.Cmd})
		}
		lg.Append(storage.Entry{Kind: storage.KindCommit, TS: tc.TS})
		cts = tc.TS
		r.committed++
		r.app.Execute(r.env.ID(), tc.TS, tc.Cmd)
	}
	r.lastCommitted = cts
	// Flush what the current turn queued before the epoch changes: those
	// messages belong to the old epoch and configuration. The install
	// implicitly asserts the commands applied above to every peer we speak
	// to next; the outbox's barrier makes them durable before that leaves.
	r.out.flush()

	// Lines 21-24: install epoch and configuration, resize LatestTV.
	r.epoch = d.epoch
	delete(r.stashed, d.epoch)
	r.config = append(r.config[:0], d.cfg...)
	for k := range r.inConfig {
		delete(r.inConfig, k)
	}
	for _, k := range d.cfg {
		r.inConfig[k] = true
	}
	// Reset LatestTV to the decision baseline: stable order resumes once
	// the new configuration's members are heard from again.
	for k := range r.latestTV {
		r.latestTV[k] = 0
	}
	now := r.env.Clock()
	for _, k := range d.cfg {
		r.latestTV[k] = d.ts.Wall
		r.lastHeard[k] = now
	}
	// The FIFO-integrity counters and the acknowledgement watermarks
	// restart with the epoch: everything the old epoch's streams carried
	// (or lost) is subsumed by this install.
	r.prepSent = 0
	clear(r.prepRecv)
	for _, a := range r.acked {
		clear(a)
	}
	r.rc = nil
	r.st = nil
	r.suspended = false

	// Replay data messages that arrived tagged with this epoch before it
	// installed: without them this replica would have a permanent gap for
	// commands the rest of the new configuration already acknowledged.
	r.redeliverHeld()

	// Replay commands buffered while suspended; if the decision removed
	// this replica, they cannot replicate from here and count as dropped.
	deferred := r.deferred
	r.deferred = nil
	if r.inConfig[r.env.ID()] {
		for _, cmd := range deferred {
			r.Submit(cmd)
		}
	} else {
		for _, cmd := range deferred {
			dropped = append(dropped, cmd.ID)
		}
	}

	// Held-buffer overflow while this epoch was pending may have opened
	// a gap in our history; force a Rejoin, whose reconfiguration and
	// state transfer (checkpoint + tail) repair it.
	if r.needCatchup {
		r.needCatchup = false
		r.env.After(0, r.Rejoin)
	}

	// Notify last, after replies for decided commands went out: the
	// listener observes the installed view and exactly the local commands
	// this reconfiguration lost.
	r.notifyConfig(dropped)

	// The install moved the executed watermark (the transfer may have
	// executed commands, and LatestTV restarted from the decision
	// baseline): wake the read path so parked reads re-evaluate against
	// the new configuration. Inside a batch turn EndBatch notifies.
	if !r.out.turn {
		r.notifyStable()
	}
}

// sortedCmds flattens a timestamp-keyed command map in timestamp order.
func sortedCmds(m map[types.Timestamp]types.Command) []msg.TimestampedCommand {
	out := make([]msg.TimestampedCommand, 0, len(m))
	for ts, cmd := range m {
		out = append(out, msg.TimestampedCommand{TS: ts, Cmd: cmd})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS.Less(out[j].TS) })
	return out
}

// --- proposal encoding ---

var errBadProposal = errors.New("core: malformed reconfiguration proposal")

// proposal is the consensus value of Alg. 3 line 6 — (confignew, cts,
// cmds) plus the responders' newest checkpoint timestamp — as plain
// JSON. It is decided once per epoch, off the per-command path.
type proposal struct {
	Cfg    []types.ReplicaID
	TS     types.Timestamp
	SnapTS types.Timestamp
	Cmds   []msg.TimestampedCommand
}

// encodeProposal serializes a reconfiguration's consensus value.
func encodeProposal(cfg []types.ReplicaID, cts, snapTS types.Timestamp, cmds []msg.TimestampedCommand) []byte {
	b, _ := json.Marshal(proposal{Cfg: cfg, TS: cts, SnapTS: snapTS, Cmds: cmds})
	return b
}

// decodeProposal parses an encodeProposal value, rejecting anything
// but one object, unknown fields and trailing data. Payloads round-trip
// exactly: a nil payload encodes as null and an empty one as "".
func decodeProposal(b []byte) (*decision, error) {
	var p *proposal
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil || p == nil {
		return nil, errBadProposal
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errBadProposal
	}
	return &decision{cfg: p.Cfg, ts: p.TS, snapTS: p.SnapTS, cmds: p.Cmds}, nil
}
