// Package paxos implements the Multi-Paxos baseline of Section IV-B and
// its latency-optimized variant Paxos-bcast, which broadcasts phase 2b
// messages so replicas learn commit outcomes without the leader's help.
//
// As in the paper's evaluation, the leader is designated up front and
// stable: commands are totally ordered by the slot sequence the leader
// assigns. Leader election/view change is outside the scope of the
// paper's latency study (its Clock-RSM reconfiguration story is the
// contribution; the baselines are measured in failure-free runs).
package paxos

import (
	"math/bits"

	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// stableBallot is the fixed ballot of the stable leader.
const stableBallot = 1

// Options configure a Paxos replica.
type Options struct {
	// Leader designates the stable leader replica.
	Leader types.ReplicaID
	// Broadcast selects Paxos-bcast: phase 2b messages go to every
	// replica (O(N²) messages) instead of only the leader, removing the
	// final leader→origin commit notification (Section IV-B).
	Broadcast bool
}

// Replica is one Multi-Paxos (or Paxos-bcast) replica.
type Replica struct {
	env  rsm.Env
	app  *rsm.App
	opts Options

	// nextSlot is the leader's next unassigned slot.
	nextSlot uint64
	// accepted maps slot → command for every slot this replica accepted.
	accepted map[uint64]types.Command
	// acks maps slot → bitmask of replicas known to have accepted it.
	// Maintained by the leader, and by everyone under Paxos-bcast.
	acks map[uint64]uint64
	// commitCount is the commit frontier: slots in [0, commitCount) are
	// known committed (the leader commits strictly in order).
	commitCount uint64
	// execIdx is the next slot to execute.
	execIdx uint64

	committed uint64
	nextSeq   uint64
}

var _ rsm.Protocol = (*Replica)(nil)

// New creates a Paxos replica.
func New(env rsm.Env, app *rsm.App, opts Options) *Replica {
	return &Replica{
		env:      env,
		app:      app,
		opts:     opts,
		accepted: make(map[uint64]types.Command),
		acks:     make(map[uint64]uint64),
	}
}

// Start implements rsm.Protocol.
func (r *Replica) Start() {}

// IsLeader reports whether this replica is the designated leader.
func (r *Replica) IsLeader() bool { return r.env.ID() == r.opts.Leader }

// Committed returns the number of commands executed.
func (r *Replica) Committed() uint64 { return r.committed }

// NextCommandID allocates a client command identifier.
func (r *Replica) NextCommandID() types.CommandID {
	r.nextSeq++
	return types.CommandID{Origin: r.env.ID(), Seq: r.nextSeq}
}

// Submit handles a client command: the leader assigns it a slot; a
// non-leader forwards it to the leader (one extra WAN message, the
// d(ri,rl) term of Table II).
func (r *Replica) Submit(cmd types.Command) {
	if r.IsLeader() {
		r.propose(cmd)
		return
	}
	r.env.Send(r.opts.Leader, &msg.Forward{Cmd: cmd})
}

// propose assigns cmd the next slot and sends phase 2a to all replicas.
// The leader logs before sending, so the Accept doubles as the leader's
// own acceptance.
func (r *Replica) propose(cmd types.Command) {
	slot := r.nextSlot
	r.nextSlot++
	r.accepted[slot] = cmd
	r.env.Log().Append(storage.Entry{Kind: storage.KindPrepare, TS: slotTS(slot), Cmd: cmd})
	r.ack(slot, r.env.ID())
	rsm.Broadcast(r.env, r.env.Spec(), &msg.Accept{
		Ballot:      stableBallot,
		Slot:        slot,
		Cmd:         cmd,
		CommitIndex: r.commitCount,
	})
	r.tryExecute()
}

// Deliver implements rsm.Protocol.
func (r *Replica) Deliver(from types.ReplicaID, m msg.Message) {
	switch mm := m.(type) {
	case *msg.Batch:
		// Packed messages from one sender: process in order.
		for _, sub := range mm.Msgs {
			r.Deliver(from, sub)
		}
	case *msg.Forward:
		if r.IsLeader() {
			r.propose(mm.Cmd)
		}
	case *msg.Accept:
		r.onAccept(from, mm)
	case *msg.Accepted:
		r.onAccepted(from, mm)
	case *msg.Commit:
		r.onCommit(mm)
	}
}

// onAccept handles phase 2a at a follower: log the command and
// acknowledge with phase 2b — to everyone under Paxos-bcast, otherwise
// to the leader only.
func (r *Replica) onAccept(from types.ReplicaID, m *msg.Accept) {
	if m.Ballot != stableBallot {
		return
	}
	if _, dup := r.accepted[m.Slot]; !dup {
		r.accepted[m.Slot] = m.Cmd
		r.env.Log().Append(storage.Entry{Kind: storage.KindPrepare, TS: slotTS(m.Slot), Cmd: m.Cmd})
	}
	// The Accept proves the leader logged the slot; count it, and our
	// own acceptance.
	r.ack(m.Slot, from)
	r.ack(m.Slot, r.env.ID())
	ack := &msg.Accepted{Ballot: stableBallot, Slot: m.Slot}
	if r.opts.Broadcast {
		rsm.Broadcast(r.env, r.env.Spec(), ack)
	} else {
		r.env.Send(r.opts.Leader, ack)
	}
	// Piggybacked commit frontier from the leader.
	if m.CommitIndex > r.commitCount {
		r.commitCount = m.CommitIndex
	}
	r.tryExecute()
}

// onAccepted handles phase 2b.
func (r *Replica) onAccepted(from types.ReplicaID, m *msg.Accepted) {
	if m.Ballot != stableBallot {
		return
	}
	r.ack(m.Slot, from)
	r.tryExecute()
}

// onCommit handles the leader's commit notification (plain Multi-Paxos).
func (r *Replica) onCommit(m *msg.Commit) {
	if m.Slot+1 > r.commitCount {
		r.commitCount = m.Slot + 1
	}
	r.tryExecute()
}

// ack records that replica k accepted slot.
func (r *Replica) ack(slot uint64, k types.ReplicaID) {
	r.acks[slot] |= 1 << uint(k)
}

// quorate reports whether slot has a majority of acceptances known
// locally.
func (r *Replica) quorate(slot uint64) bool {
	return bits.OnesCount64(r.acks[slot]) >= types.Majority(len(r.env.Spec()))
}

// tryExecute advances the execution frontier. Under Paxos-bcast every
// replica counts 2b messages itself; under plain Paxos followers rely on
// the leader's commit index. Execution is strictly in slot order.
func (r *Replica) tryExecute() {
	for {
		cmd, ok := r.accepted[r.execIdx]
		if !ok {
			return
		}
		committable := r.execIdx < r.commitCount
		if !committable && (r.opts.Broadcast || r.IsLeader()) {
			committable = r.quorate(r.execIdx)
		}
		if !committable {
			return
		}
		slot := r.execIdx
		r.execIdx++
		if slot+1 > r.commitCount {
			r.commitCount = slot + 1
		}
		r.env.Log().Append(storage.Entry{Kind: storage.KindCommit, TS: slotTS(slot)})
		delete(r.acks, slot)
		delete(r.accepted, slot)
		r.committed++
		r.app.Execute(r.env.ID(), slotTS(slot), cmd)
		// Plain Multi-Paxos: the leader notifies followers of the commit.
		if !r.opts.Broadcast && r.IsLeader() {
			rsm.Broadcast(r.env, r.env.Spec(), &msg.Commit{Slot: slot})
		}
	}
}

// slotTS renders a slot as the Timestamp key used by the shared log.
func slotTS(slot uint64) types.Timestamp {
	return types.Timestamp{Wall: int64(slot)}
}
