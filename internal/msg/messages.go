package msg

import "clockrsm/internal/types"

// TimestampedCommand pairs a command with its total-order timestamp; it
// appears in log transfers during reconfiguration and recovery.
type TimestampedCommand struct {
	TS  types.Timestamp
	Cmd types.Command
}

// --- Clock-RSM (Algorithm 1, 2) ---

// Prepare is the logging request broadcast by a command's originating
// replica: 〈PREPARE cmd, ts〉 (Alg. 1 line 3). Epoch stamps the
// configuration so replicas can discard messages from older epochs.
type Prepare struct {
	Epoch types.Epoch
	TS    types.Timestamp
	Cmd   types.Command
	// Sent is the cumulative count of PREPAREs the sender has broadcast
	// in this epoch, this one included. The stable-order rule assumes
	// FIFO loss-free channels: a receiver may advance a sender's
	// latest-time entry only if it has seen every earlier PREPARE from
	// that sender. The counter lets a receiver prove a violation — a
	// message arriving with Sent ahead of its own receive count means a
	// PREPARE was lost in transit — and trigger state-transfer repair
	// instead of silently committing past the hole. Zero means
	// unsequenced (hand-built messages in tests) and never signals a gap.
	Sent uint64

	// rec backs this message when it came from DecodeRecycled; see Recycle.
	rec *Record
}

// Type implements Message.
func (*Prepare) Type() Type { return TPrepare }

func (m *Prepare) fields(w walk) walk {
	return w.epoch(&m.Epoch).ts(&m.TS).u64(&m.Sent).cmd(&m.Cmd)
}

// PrepareOK acknowledges that the sender logged the command with
// timestamp TS: 〈PREPAREOK ts, clockTs〉 (Alg. 1 line 10). ClockTS is the
// sender's clock at acknowledgement time and doubles as its latest-time
// promise.
type PrepareOK struct {
	Epoch   types.Epoch
	TS      types.Timestamp
	ClockTS int64
	// Sent carries the sender's cumulative PREPARE broadcast count for
	// this epoch; see Prepare.Sent. ClockTS advances the sender's
	// latest-time entry at the receiver, so the acknowledgement must
	// prove the PREPARE stream it rides behind is intact.
	Sent uint64

	// rec backs this message when it came from DecodeRecycled; see Recycle.
	rec *Record
}

// Type implements Message.
func (*PrepareOK) Type() Type { return TPrepareOK }

func (m *PrepareOK) fields(w walk) walk {
	return w.epoch(&m.Epoch).ts(&m.TS).i64(&m.ClockTS).u64(&m.Sent)
}

// ClockTime is the periodic idle-time broadcast of Algorithm 2:
// 〈CLOCKTIME ts〉.
type ClockTime struct {
	Epoch types.Epoch
	TS    int64
	// Sent carries the sender's cumulative PREPARE broadcast count for
	// this epoch; see Prepare.Sent. CLOCKTIME is the message most likely
	// to thaw a frozen latest-time entry after a loss window, so it must
	// prove no PREPARE from its sender is still missing.
	Sent uint64

	// rec backs this message when it came from DecodeRecycled; see Recycle.
	rec *Record
}

// Type implements Message.
func (*ClockTime) Type() Type { return TClockTime }

func (m *ClockTime) fields(w walk) walk { return w.epoch(&m.Epoch).i64(&m.TS).u64(&m.Sent) }

// ClockReq asks a peer for an immediate 〈CLOCKTIME〉 reply. A replica
// holding a parked linearizable read broadcasts it so an otherwise idle
// configuration answers with fresh clock readings right away, instead of
// the read waiting out the remainder of the Δ broadcast period plus a
// one-way delay (the idle-read latency floor of Section IV). It is rare
// (rate-limited at the sender, absent under write traffic), so it is
// heap-owned — no pooled-record slab.
type ClockReq struct {
	Epoch types.Epoch
}

// Type implements Message.
func (*ClockReq) Type() Type { return TClockReq }

func (m *ClockReq) fields(w walk) walk { return w.epoch(&m.Epoch) }

// --- Multi-Paxos / Paxos-bcast ---

// Forward carries a client command from a non-leader replica to the
// leader (Section IV-B).
type Forward struct {
	Cmd types.Command
}

// Type implements Message.
func (*Forward) Type() Type { return TForward }

func (m *Forward) fields(w walk) walk { return w.cmd(&m.Cmd) }

// Accept is the leader's phase 2a message assigning Cmd to log slot Slot
// under Ballot. CommitIndex piggybacks the leader's highest contiguous
// committed slot so followers learn commits without extra messages.
type Accept struct {
	Ballot      uint64
	Slot        uint64
	Cmd         types.Command
	CommitIndex uint64
}

// Type implements Message.
func (*Accept) Type() Type { return TAccept }

func (m *Accept) fields(w walk) walk {
	return w.u64(&m.Ballot).u64(&m.Slot).cmd(&m.Cmd).u64(&m.CommitIndex)
}

// Accepted is the phase 2b acknowledgement for Slot under Ballot. In
// Multi-Paxos it flows to the leader only; in Paxos-bcast it is broadcast
// to all replicas (Section IV-B).
type Accepted struct {
	Ballot uint64
	Slot   uint64
}

// Type implements Message.
func (*Accepted) Type() Type { return TAccepted }

func (m *Accepted) fields(w walk) walk { return w.u64(&m.Ballot).u64(&m.Slot) }

// Commit is the leader's commit notification for slots up to and
// including Slot (plain Multi-Paxos only; Paxos-bcast learns commits from
// broadcast Accepted messages).
type Commit struct {
	Slot uint64
}

// Type implements Message.
func (*Commit) Type() Type { return TCommit }

func (m *Commit) fields(w walk) walk { return w.u64(&m.Slot) }

// --- Mencius / Mencius-bcast ---

// MAccept proposes Cmd in slot Slot, owned by the sender under Mencius'
// rotating slot assignment. LowSlot is the smallest slot the sender may
// still propose in: it implicitly skips all of the sender's owned slots
// below LowSlot.
type MAccept struct {
	Slot    uint64
	Cmd     types.Command
	LowSlot uint64
}

// Type implements Message.
func (*MAccept) Type() Type { return TMAccept }

func (m *MAccept) fields(w walk) walk { return w.u64(&m.Slot).cmd(&m.Cmd).u64(&m.LowSlot) }

// MAccepted acknowledges logging of slot Slot and carries the sender's
// LowSlot promise (skipping its owned slots below LowSlot). Broadcast in
// Mencius-bcast; sent to the slot owner only in plain Mencius.
type MAccepted struct {
	Slot    uint64
	LowSlot uint64
}

// Type implements Message.
func (*MAccepted) Type() Type { return TMAccepted }

func (m *MAccepted) fields(w walk) walk { return w.u64(&m.Slot).u64(&m.LowSlot) }

// MCommit is the owner's commit notification for slot Slot (plain
// Mencius only).
type MCommit struct {
	Slot uint64
}

// Type implements Message.
func (*MCommit) Type() Type { return TMCommit }

func (m *MCommit) fields(w walk) walk { return w.u64(&m.Slot) }

// --- Reconfiguration (Algorithm 3) ---

// Suspend freezes log processing for the transition to epoch Epoch:
// 〈SUSPEND e, cts〉 (Alg. 3 line 4). CTS is the timestamp of the sender's
// last commit mark.
type Suspend struct {
	Epoch types.Epoch
	CTS   types.Timestamp
}

// Type implements Message.
func (*Suspend) Type() Type { return TSuspend }

func (m *Suspend) fields(w walk) walk { return w.epoch(&m.Epoch).ts(&m.CTS) }

// SuspendOK returns all logged commands with timestamps greater than the
// SUSPEND's cts: 〈SUSPENDOK e, cmds〉 (Alg. 3 line 10). When the
// responder has compacted part of that range into a checkpoint
// (Section V-B), the command list alone would be incomplete; it then
// also ships the snapshot covering every command up to SnapTS, exactly
// as RetrieveReply does for state transfer.
type SuspendOK struct {
	Epoch   types.Epoch
	Cmds    []TimestampedCommand
	HasSnap bool
	SnapTS  types.Timestamp
	Snap    []byte
}

// Type implements Message.
func (*SuspendOK) Type() Type { return TSuspendOK }

func (m *SuspendOK) fields(w walk) walk {
	return w.epoch(&m.Epoch).tsCmds(&m.Cmds).snap(&m.HasSnap, &m.SnapTS, &m.Snap)
}

// RetrieveCmds requests all logged commands with timestamps in
// (From, To]: 〈RETRIEVECMDS from, to〉 (Alg. 3 line 26), used by state
// transfer and recovery. Seq is a request tag the reply echoes.
type RetrieveCmds struct {
	From types.Timestamp
	To   types.Timestamp
	Seq  uint64
}

// Type implements Message.
func (*RetrieveCmds) Type() Type { return TRetrieveCmds }

func (m *RetrieveCmds) fields(w walk) walk { return w.ts(&m.From).ts(&m.To).u64(&m.Seq) }

// RetrieveReply returns the requested command range:
// 〈RETRIEVEREPLY cmds〉 (Alg. 3 line 31). Seq echoes the request's
// tag so a late reply to an earlier retrieval is not mistaken for one
// to the current request. When the responder
// has compacted part of the requested range into a checkpoint
// (Section V-B), it ships the snapshot covering commands up to SnapTS
// plus the commands above it.
type RetrieveReply struct {
	Seq     uint64
	Cmds    []TimestampedCommand
	HasSnap bool
	SnapTS  types.Timestamp
	Snap    []byte
}

// Type implements Message.
func (*RetrieveReply) Type() Type { return TRetrieveReply }

func (m *RetrieveReply) fields(w walk) walk {
	return w.u64(&m.Seq).tsCmds(&m.Cmds).snap(&m.HasSnap, &m.SnapTS, &m.Snap)
}

// --- Single-decree Paxos consensus primitive (used by reconfiguration) ---

// P1a is the prepare request of consensus instance Instance under Ballot.
type P1a struct {
	Instance uint64
	Ballot   uint64
}

// Type implements Message.
func (*P1a) Type() Type { return TP1a }

func (m *P1a) fields(w walk) walk { return w.u64(&m.Instance).u64(&m.Ballot) }

// P1b is the promise reply, reporting any previously accepted value.
type P1b struct {
	Instance       uint64
	Ballot         uint64
	AcceptedBallot uint64
	Value          []byte
}

// Type implements Message.
func (*P1b) Type() Type { return TP1b }

func (m *P1b) fields(w walk) walk {
	return w.u64(&m.Instance).u64(&m.Ballot).u64(&m.AcceptedBallot).bytes(&m.Value)
}

// P2a asks acceptors to accept Value for instance Instance under Ballot.
type P2a struct {
	Instance uint64
	Ballot   uint64
	Value    []byte
}

// Type implements Message.
func (*P2a) Type() Type { return TP2a }

func (m *P2a) fields(w walk) walk { return w.u64(&m.Instance).u64(&m.Ballot).bytes(&m.Value) }

// P2b acknowledges acceptance of instance Instance under Ballot.
type P2b struct {
	Instance uint64
	Ballot   uint64
}

// Type implements Message.
func (*P2b) Type() Type { return TP2b }

func (m *P2b) fields(w walk) walk { return w.u64(&m.Instance).u64(&m.Ballot) }

// Learn announces the decided value of instance Instance to all replicas.
type Learn struct {
	Instance uint64
	Value    []byte
}

// Type implements Message.
func (*Learn) Type() Type { return TLearn }

func (m *Learn) fields(w walk) walk { return w.u64(&m.Instance).bytes(&m.Value) }
