package msg

import (
	"clockrsm/internal/types"
)

// TimestampedCommand pairs a command with its total-order timestamp; it
// appears in log transfers during reconfiguration and recovery.
type TimestampedCommand struct {
	TS  types.Timestamp
	Cmd types.Command
}

func putTSCmds(b []byte, cs []TimestampedCommand) []byte {
	b = putU32(b, uint32(len(cs)))
	for _, c := range cs {
		b = putTS(b, c.TS)
		b = putCmd(b, c.Cmd)
	}
	return b
}

func getTSCmds(b []byte) ([]TimestampedCommand, []byte, error) {
	n, b, err := getU32(b)
	if err != nil {
		return nil, nil, err
	}
	// Each entry occupies at least 24 bytes on the wire; bound the
	// pre-allocation so a corrupt length cannot trigger a huge allocation.
	capHint := int(n)
	if maxEntries := len(b)/24 + 1; capHint > maxEntries {
		capHint = maxEntries
	}
	cs := make([]TimestampedCommand, 0, capHint)
	for i := uint32(0); i < n; i++ {
		var tc TimestampedCommand
		tc.TS, b, err = getTS(b)
		if err != nil {
			return nil, nil, err
		}
		tc.Cmd, b, err = getCmd(b, nil)
		if err != nil {
			return nil, nil, err
		}
		cs = append(cs, tc)
	}
	return cs, b, nil
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

var _ Message = (*Prepare)(nil)

// Type implements Message.
func (*Prepare) Type() Type { return TPrepare }

func (m *Prepare) appendTo(b []byte) []byte {
	b = putU64(b, uint64(m.Epoch))
	b = putTS(b, m.TS)
	b = putU64(b, m.Sent)
	return putCmd(b, m.Cmd)
}

func (m *Prepare) decode(b []byte, rec *Record) ([]byte, error) {
	e, b, err := getU64(b)
	if err != nil {
		return nil, err
	}
	m.Epoch = types.Epoch(e)
	m.TS, b, err = getTS(b)
	if err != nil {
		return nil, err
	}
	m.Sent, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Cmd, b, err = getCmd(b, rec)
	return b, err
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

var _ Message = (*PrepareOK)(nil)

// Type implements Message.
func (*PrepareOK) Type() Type { return TPrepareOK }

func (m *PrepareOK) appendTo(b []byte) []byte {
	b = putU64(b, uint64(m.Epoch))
	b = putTS(b, m.TS)
	b = putI64(b, m.ClockTS)
	return putU64(b, m.Sent)
}

func (m *PrepareOK) decode(b []byte, rec *Record) ([]byte, error) {
	e, b, err := getU64(b)
	if err != nil {
		return nil, err
	}
	m.Epoch = types.Epoch(e)
	m.TS, b, err = getTS(b)
	if err != nil {
		return nil, err
	}
	m.ClockTS, b, err = getI64(b)
	if err != nil {
		return nil, err
	}
	m.Sent, b, err = getU64(b)
	return b, err
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

var _ Message = (*ClockTime)(nil)

// Type implements Message.
func (*ClockTime) Type() Type { return TClockTime }

func (m *ClockTime) appendTo(b []byte) []byte {
	b = putU64(b, uint64(m.Epoch))
	b = putI64(b, m.TS)
	return putU64(b, m.Sent)
}

func (m *ClockTime) decode(b []byte, rec *Record) ([]byte, error) {
	e, b, err := getU64(b)
	if err != nil {
		return nil, err
	}
	m.Epoch = types.Epoch(e)
	m.TS, b, err = getI64(b)
	if err != nil {
		return nil, err
	}
	m.Sent, b, err = getU64(b)
	return b, err
}

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

var _ Message = (*ClockReq)(nil)

// Type implements Message.
func (*ClockReq) Type() Type { return TClockReq }

func (m *ClockReq) appendTo(b []byte) []byte {
	return putU64(b, uint64(m.Epoch))
}

func (m *ClockReq) decode(b []byte, rec *Record) ([]byte, error) {
	e, b, err := getU64(b)
	if err != nil {
		return nil, err
	}
	m.Epoch = types.Epoch(e)
	return b, nil
}

// --- Multi-Paxos / Paxos-bcast ---

// Forward carries a client command from a non-leader replica to the
// leader (Section IV-B).
type Forward struct {
	Cmd types.Command
}

var _ Message = (*Forward)(nil)

// Type implements Message.
func (*Forward) Type() Type { return TForward }

func (m *Forward) appendTo(b []byte) []byte { return putCmd(b, m.Cmd) }

func (m *Forward) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Cmd, b, err = getCmd(b, nil)
	return b, err
}

// Accept is the leader's phase 2a message assigning Cmd to log slot Slot
// under Ballot. CommitIndex piggybacks the leader's highest contiguous
// committed slot so followers learn commits without extra messages.
type Accept struct {
	Ballot      uint64
	Slot        uint64
	Cmd         types.Command
	CommitIndex uint64
}

var _ Message = (*Accept)(nil)

// Type implements Message.
func (*Accept) Type() Type { return TAccept }

func (m *Accept) appendTo(b []byte) []byte {
	b = putU64(b, m.Ballot)
	b = putU64(b, m.Slot)
	b = putCmd(b, m.Cmd)
	return putU64(b, m.CommitIndex)
}

func (m *Accept) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Ballot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Slot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Cmd, b, err = getCmd(b, nil)
	if err != nil {
		return nil, err
	}
	m.CommitIndex, b, err = getU64(b)
	return b, err
}

// Accepted is the phase 2b acknowledgement for Slot under Ballot. In
// Multi-Paxos it flows to the leader only; in Paxos-bcast it is broadcast
// to all replicas (Section IV-B).
type Accepted struct {
	Ballot uint64
	Slot   uint64
}

var _ Message = (*Accepted)(nil)

// Type implements Message.
func (*Accepted) Type() Type { return TAccepted }

func (m *Accepted) appendTo(b []byte) []byte {
	b = putU64(b, m.Ballot)
	return putU64(b, m.Slot)
}

func (m *Accepted) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Ballot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Slot, b, err = getU64(b)
	return b, err
}

// Commit is the leader's commit notification for slots up to and
// including Slot (plain Multi-Paxos only; Paxos-bcast learns commits from
// broadcast Accepted messages).
type Commit struct {
	Slot uint64
}

var _ Message = (*Commit)(nil)

// Type implements Message.
func (*Commit) Type() Type { return TCommit }

func (m *Commit) appendTo(b []byte) []byte { return putU64(b, m.Slot) }

func (m *Commit) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Slot, b, err = getU64(b)
	return b, err
}

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

var _ Message = (*MAccept)(nil)

// Type implements Message.
func (*MAccept) Type() Type { return TMAccept }

func (m *MAccept) appendTo(b []byte) []byte {
	b = putU64(b, m.Slot)
	b = putCmd(b, m.Cmd)
	return putU64(b, m.LowSlot)
}

func (m *MAccept) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Slot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Cmd, b, err = getCmd(b, nil)
	if err != nil {
		return nil, err
	}
	m.LowSlot, b, err = getU64(b)
	return b, err
}

// MAccepted acknowledges logging of slot Slot and carries the sender's
// LowSlot promise (skipping its owned slots below LowSlot). Broadcast in
// Mencius-bcast; sent to the slot owner only in plain Mencius.
type MAccepted struct {
	Slot    uint64
	LowSlot uint64
}

var _ Message = (*MAccepted)(nil)

// Type implements Message.
func (*MAccepted) Type() Type { return TMAccepted }

func (m *MAccepted) appendTo(b []byte) []byte {
	b = putU64(b, m.Slot)
	return putU64(b, m.LowSlot)
}

func (m *MAccepted) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Slot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.LowSlot, b, err = getU64(b)
	return b, err
}

// MCommit is the owner's commit notification for slot Slot (plain
// Mencius only).
type MCommit struct {
	Slot uint64
}

var _ Message = (*MCommit)(nil)

// Type implements Message.
func (*MCommit) Type() Type { return TMCommit }

func (m *MCommit) appendTo(b []byte) []byte { return putU64(b, m.Slot) }

func (m *MCommit) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Slot, b, err = getU64(b)
	return b, err
}

// --- Reconfiguration (Algorithm 3) ---

// Suspend freezes log processing for the transition to epoch Epoch:
// 〈SUSPEND e, cts〉 (Alg. 3 line 4). CTS is the timestamp of the sender's
// last commit mark.
type Suspend struct {
	Epoch types.Epoch
	CTS   types.Timestamp
}

var _ Message = (*Suspend)(nil)

// Type implements Message.
func (*Suspend) Type() Type { return TSuspend }

func (m *Suspend) appendTo(b []byte) []byte {
	b = putU64(b, uint64(m.Epoch))
	return putTS(b, m.CTS)
}

func (m *Suspend) decode(b []byte, rec *Record) ([]byte, error) {
	e, b, err := getU64(b)
	if err != nil {
		return nil, err
	}
	m.Epoch = types.Epoch(e)
	m.CTS, b, err = getTS(b)
	return b, err
}

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

var _ Message = (*SuspendOK)(nil)

// Type implements Message.
func (*SuspendOK) Type() Type { return TSuspendOK }

func (m *SuspendOK) appendTo(b []byte) []byte {
	b = putU64(b, uint64(m.Epoch))
	b = putTSCmds(b, m.Cmds)
	if m.HasSnap {
		b = append(b, 1)
		b = putTS(b, m.SnapTS)
		b = putBytes(b, m.Snap)
	} else {
		b = append(b, 0)
	}
	return b
}

func (m *SuspendOK) decode(b []byte, rec *Record) ([]byte, error) {
	e, b, err := getU64(b)
	if err != nil {
		return nil, err
	}
	m.Epoch = types.Epoch(e)
	m.Cmds, b, err = getTSCmds(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	m.HasSnap = b[0] == 1
	b = b[1:]
	if m.HasSnap {
		m.SnapTS, b, err = getTS(b)
		if err != nil {
			return nil, err
		}
		m.Snap, b, err = getBytes(b, nil)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// RetrieveCmds requests all logged commands with timestamps in
// (From, To]: 〈RETRIEVECMDS from, to〉 (Alg. 3 line 26), used by state
// transfer and recovery. Seq is a request tag the reply echoes.
type RetrieveCmds struct {
	From types.Timestamp
	To   types.Timestamp
	Seq  uint64
}

var _ Message = (*RetrieveCmds)(nil)

// Type implements Message.
func (*RetrieveCmds) Type() Type { return TRetrieveCmds }

func (m *RetrieveCmds) appendTo(b []byte) []byte {
	b = putTS(b, m.From)
	b = putTS(b, m.To)
	return putU64(b, m.Seq)
}

func (m *RetrieveCmds) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.From, b, err = getTS(b)
	if err != nil {
		return nil, err
	}
	m.To, b, err = getTS(b)
	if err != nil {
		return nil, err
	}
	m.Seq, b, err = getU64(b)
	return b, err
}

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

var _ Message = (*RetrieveReply)(nil)

// Type implements Message.
func (*RetrieveReply) Type() Type { return TRetrieveReply }

func (m *RetrieveReply) appendTo(b []byte) []byte {
	b = putU64(b, m.Seq)
	b = putTSCmds(b, m.Cmds)
	if m.HasSnap {
		b = append(b, 1)
		b = putTS(b, m.SnapTS)
		b = putBytes(b, m.Snap)
	} else {
		b = append(b, 0)
	}
	return b
}

func (m *RetrieveReply) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Seq, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Cmds, b, err = getTSCmds(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	m.HasSnap = b[0] == 1
	b = b[1:]
	if m.HasSnap {
		m.SnapTS, b, err = getTS(b)
		if err != nil {
			return nil, err
		}
		m.Snap, b, err = getBytes(b, nil)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// --- Single-decree Paxos consensus primitive (used by reconfiguration) ---

// P1a is the prepare request of consensus instance Instance under Ballot.
type P1a struct {
	Instance uint64
	Ballot   uint64
}

var _ Message = (*P1a)(nil)

// Type implements Message.
func (*P1a) Type() Type { return TP1a }

func (m *P1a) appendTo(b []byte) []byte {
	b = putU64(b, m.Instance)
	return putU64(b, m.Ballot)
}

func (m *P1a) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Instance, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Ballot, b, err = getU64(b)
	return b, err
}

// P1b is the promise reply, reporting any previously accepted value.
type P1b struct {
	Instance       uint64
	Ballot         uint64
	AcceptedBallot uint64
	Value          []byte
}

var _ Message = (*P1b)(nil)

// Type implements Message.
func (*P1b) Type() Type { return TP1b }

func (m *P1b) appendTo(b []byte) []byte {
	b = putU64(b, m.Instance)
	b = putU64(b, m.Ballot)
	b = putU64(b, m.AcceptedBallot)
	return putBytes(b, m.Value)
}

func (m *P1b) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Instance, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Ballot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.AcceptedBallot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Value, b, err = getBytes(b, nil)
	return b, err
}

// P2a asks acceptors to accept Value for instance Instance under Ballot.
type P2a struct {
	Instance uint64
	Ballot   uint64
	Value    []byte
}

var _ Message = (*P2a)(nil)

// Type implements Message.
func (*P2a) Type() Type { return TP2a }

func (m *P2a) appendTo(b []byte) []byte {
	b = putU64(b, m.Instance)
	b = putU64(b, m.Ballot)
	return putBytes(b, m.Value)
}

func (m *P2a) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Instance, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Ballot, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Value, b, err = getBytes(b, nil)
	return b, err
}

// P2b acknowledges acceptance of instance Instance under Ballot.
type P2b struct {
	Instance uint64
	Ballot   uint64
}

var _ Message = (*P2b)(nil)

// Type implements Message.
func (*P2b) Type() Type { return TP2b }

func (m *P2b) appendTo(b []byte) []byte {
	b = putU64(b, m.Instance)
	return putU64(b, m.Ballot)
}

func (m *P2b) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Instance, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Ballot, b, err = getU64(b)
	return b, err
}

// Learn announces the decided value of instance Instance to all replicas.
type Learn struct {
	Instance uint64
	Value    []byte
}

var _ Message = (*Learn)(nil)

// Type implements Message.
func (*Learn) Type() Type { return TLearn }

func (m *Learn) appendTo(b []byte) []byte {
	b = putU64(b, m.Instance)
	return putBytes(b, m.Value)
}

func (m *Learn) decode(b []byte, rec *Record) ([]byte, error) {
	var err error
	m.Instance, b, err = getU64(b)
	if err != nil {
		return nil, err
	}
	m.Value, b, err = getBytes(b, nil)
	return b, err
}
