// Package mencius implements the Mencius-bcast baseline of Section IV-C:
// Mencius (Mao & Junqueira, OSDI'08) with the commit-notification
// broadcast optimization the paper evaluates against.
//
// Mencius rotates slot ownership round-robin: replica k owns slots
// k, k+N, k+2N, …. A replica proposes its clients' commands in its own
// slots; acknowledging a higher slot implicitly skips the acknowledger's
// unused owned slots below it (the LowSlot promise on every message).
// A slot executes once it is decided AND every lower slot is decided —
// either with a command replicated at a majority, or as a skip learned
// from its owner. This last condition is the source of Mencius' delayed
// commit problem: a command can wait on concurrent commands (or skip
// announcements) from every other replica.
//
// As in the paper's latency study, the baseline runs failure-free; skip
// promises are taken from the owner's own announcements (revoking a
// crashed owner's slots needs Mencius' revocation protocol, which the
// paper does not exercise).
package mencius

import (
	"math/bits"

	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// Replica is one Mencius-bcast replica.
type Replica struct {
	env rsm.Env
	app *rsm.App
	n   int

	// nextOwn is the smallest owned slot this replica may still propose
	// in; it advances past foreign slots as they are observed (implicit
	// skipping).
	nextOwn uint64
	// lowSlot[k] is replica k's announced proposal floor: k will never
	// propose in an owned slot < lowSlot[k], so such slots without a
	// command are skips.
	lowSlot []uint64
	// accepted maps slot → command.
	accepted map[uint64]types.Command
	// acks maps slot → bitmask of replicas that logged it.
	acks map[uint64]uint64
	// execIdx is the next slot to execute or skip.
	execIdx uint64

	committed uint64
	skipped   uint64
	nextSeq   uint64
}

var _ rsm.Protocol = (*Replica)(nil)

// New creates a Mencius-bcast replica.
func New(env rsm.Env, app *rsm.App) *Replica {
	n := len(env.Spec())
	return &Replica{
		env:      env,
		app:      app,
		n:        n,
		nextOwn:  uint64(env.ID()),
		lowSlot:  make([]uint64, n),
		accepted: make(map[uint64]types.Command),
		acks:     make(map[uint64]uint64),
	}
}

// Start implements rsm.Protocol.
func (r *Replica) Start() {}

// Committed returns the number of commands executed.
func (r *Replica) Committed() uint64 { return r.committed }

// Skipped returns the number of slots executed as no-ops.
func (r *Replica) Skipped() uint64 { return r.skipped }

// NextCommandID allocates a client command identifier.
func (r *Replica) NextCommandID() types.CommandID {
	r.nextSeq++
	return types.CommandID{Origin: r.env.ID(), Seq: r.nextSeq}
}

// owner returns the replica owning a slot.
func (r *Replica) owner(slot uint64) types.ReplicaID {
	return types.ReplicaID(slot % uint64(r.n))
}

// Submit proposes cmd in this replica's next owned slot and broadcasts
// the accept message, which carries the new proposal floor (skipping
// nothing of its own here — nextOwn is by construction the lowest unused
// owned slot).
func (r *Replica) Submit(cmd types.Command) {
	slot := r.nextOwn
	r.nextOwn += uint64(r.n)
	r.lowSlot[r.env.ID()] = r.nextOwn
	r.accepted[slot] = cmd
	r.env.Log().Append(storage.Entry{Kind: storage.KindPrepare, TS: slotTS(slot), Cmd: cmd})
	r.ack(slot, r.env.ID())
	rsm.Broadcast(r.env, r.env.Spec(), &msg.MAccept{Slot: slot, Cmd: cmd, LowSlot: r.nextOwn})
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
	case *msg.MAccept:
		r.onAccept(from, mm)
	case *msg.MAccepted:
		r.onAccepted(from, mm)
	}
}

// observeLow folds replica k's announced proposal floor.
func (r *Replica) observeLow(k types.ReplicaID, low uint64) {
	if low > r.lowSlot[k] {
		r.lowSlot[k] = low
	}
}

// skipPast advances this replica's own proposal floor past slot,
// implicitly skipping every unused owned slot below it. The new floor is
// announced on the next outgoing message (and counted locally at once).
func (r *Replica) skipPast(slot uint64) {
	for r.nextOwn < slot {
		r.nextOwn += uint64(r.n)
	}
	if r.nextOwn > r.lowSlot[r.env.ID()] {
		r.lowSlot[r.env.ID()] = r.nextOwn
	}
}

// onAccept handles a proposal for a foreign slot: log it, adopt the
// owner's floor, skip our own unused slots below it, and acknowledge to
// everyone (the -bcast optimization) with our floor attached.
func (r *Replica) onAccept(from types.ReplicaID, m *msg.MAccept) {
	r.observeLow(from, m.LowSlot)
	r.skipPast(m.Slot)
	if _, dup := r.accepted[m.Slot]; !dup {
		r.accepted[m.Slot] = m.Cmd
		r.env.Log().Append(storage.Entry{Kind: storage.KindPrepare, TS: slotTS(m.Slot), Cmd: m.Cmd})
	}
	// The MAccept proves the owner logged the slot.
	r.ack(m.Slot, from)
	r.ack(m.Slot, r.env.ID())
	rsm.Broadcast(r.env, r.env.Spec(), &msg.MAccepted{Slot: m.Slot, LowSlot: r.nextOwn})
	r.tryExecute()
}

// onAccepted handles a logging acknowledgement broadcast by another
// replica.
func (r *Replica) onAccepted(from types.ReplicaID, m *msg.MAccepted) {
	r.observeLow(from, m.LowSlot)
	r.ack(m.Slot, from)
	r.tryExecute()
}

// ack records that replica k logged slot.
func (r *Replica) ack(slot uint64, k types.ReplicaID) {
	r.acks[slot] |= 1 << uint(k)
}

// tryExecute advances the execution frontier in slot order: commands
// execute once majority-replicated; empty slots execute as skips once
// their owner's floor passes them. A slot that is neither blocks all
// later slots — the delayed commit problem.
func (r *Replica) tryExecute() {
	maj := types.Majority(r.n)
	for {
		slot := r.execIdx
		if cmd, ok := r.accepted[slot]; ok {
			if bits.OnesCount64(r.acks[slot]) < maj {
				return
			}
			r.execIdx++
			r.env.Log().Append(storage.Entry{Kind: storage.KindCommit, TS: slotTS(slot)})
			delete(r.acks, slot)
			delete(r.accepted, slot)
			r.committed++
			r.app.Execute(r.env.ID(), slotTS(slot), cmd)
			continue
		}
		owner := r.owner(slot)
		if owner == r.env.ID() {
			if r.nextOwn > slot {
				// Our own skipped slot.
				r.execIdx++
				r.skipped++
				continue
			}
			return
		}
		if r.lowSlot[owner] > slot {
			// Skip learned from the owner's floor announcement.
			r.execIdx++
			r.skipped++
			continue
		}
		return
	}
}

// slotTS renders a slot as the Timestamp key used by the shared log.
func slotTS(slot uint64) types.Timestamp {
	return types.Timestamp{Wall: int64(slot)}
}
