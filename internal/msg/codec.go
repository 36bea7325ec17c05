// Package msg defines the wire messages of every replication protocol in
// this repository (Clock-RSM, Multi-Paxos, Mencius, the reconfiguration
// protocol and its consensus primitive) together with a compact binary
// codec. The TCP transport sends every message through it; the
// in-process hub does too in codec mode (what the benchmark and the
// experiment runner use), and passes Message values directly only
// without it.
//
// Each message lists its body fields once, in wire order, in its fields
// method; one walk over that list encodes the message and the same walk
// decodes it, so the two directions cannot disagree about a layout.
// TestWireGolden pins the resulting bytes of every message type.
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"clockrsm/internal/types"
)

// MaxFrame bounds any single wire frame and any length-prefixed field
// inside one (64 MiB). The TCP transport enforces the same limit on
// incoming frames; the decoder re-checks it so a corrupt 4-byte length
// prefix can never drive a multi-GiB allocation.
const MaxFrame = 64 << 20

// Type discriminates the concrete message kind on the wire.
type Type uint8

// Wire message types.
const (
	// Clock-RSM (Algorithm 1 and 2).
	TPrepare Type = iota + 1
	TPrepareOK
	TClockTime
	// Multi-Paxos / Paxos-bcast.
	TForward
	TAccept
	TAccepted
	TCommit
	// Mencius / Mencius-bcast.
	TMAccept
	TMAccepted
	TMCommit
	// Reconfiguration (Algorithm 3).
	TSuspend
	TSuspendOK
	TRetrieveCmds
	TRetrieveReply
	// Single-decree Paxos consensus primitive.
	TP1a
	TP1b
	TP2a
	TP2b
	TLearn
	// Container frame packing several messages from one sender.
	TBatch
	// Clock-RSM idle-read nudge (Section IV latency floor): a replica
	// with a parked linearizable read asks its peers for an immediate
	// CLOCKTIME instead of waiting out the rest of Δ. Appended after
	// TBatch so every pre-existing wire value is unchanged.
	TClockReq
	maxType
)

// kinds holds, per wire type, the paper's message name and a
// constructor for an empty heap-owned message of that type.
var kinds = [maxType]struct {
	name string
	new  func() Message
}{
	TPrepare:       {"PREPARE", func() Message { return new(Prepare) }},
	TPrepareOK:     {"PREPAREOK", func() Message { return new(PrepareOK) }},
	TClockTime:     {"CLOCKTIME", func() Message { return new(ClockTime) }},
	TForward:       {"FORWARD", func() Message { return new(Forward) }},
	TAccept:        {"ACCEPT", func() Message { return new(Accept) }},
	TAccepted:      {"ACCEPTED", func() Message { return new(Accepted) }},
	TCommit:        {"COMMIT", func() Message { return new(Commit) }},
	TMAccept:       {"MACCEPT", func() Message { return new(MAccept) }},
	TMAccepted:     {"MACCEPTED", func() Message { return new(MAccepted) }},
	TMCommit:       {"MCOMMIT", func() Message { return new(MCommit) }},
	TSuspend:       {"SUSPEND", func() Message { return new(Suspend) }},
	TSuspendOK:     {"SUSPENDOK", func() Message { return new(SuspendOK) }},
	TRetrieveCmds:  {"RETRIEVECMDS", func() Message { return new(RetrieveCmds) }},
	TRetrieveReply: {"RETRIEVEREPLY", func() Message { return new(RetrieveReply) }},
	TP1a:           {"P1A", func() Message { return new(P1a) }},
	TP1b:           {"P1B", func() Message { return new(P1b) }},
	TP2a:           {"P2A", func() Message { return new(P2a) }},
	TP2b:           {"P2B", func() Message { return new(P2b) }},
	TLearn:         {"LEARN", func() Message { return new(Learn) }},
	TBatch:         {"BATCH", func() Message { return new(Batch) }},
	TClockReq:      {"CLOCKREQ", func() Message { return new(ClockReq) }},
}

// String returns the paper's message name.
func (t Type) String() string {
	if t < maxType && kinds[t].name != "" {
		return kinds[t].name
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Message is implemented by every wire message.
type Message interface {
	// Type identifies the concrete message kind.
	Type() Type
	// fields walks the message body (without the type byte) through w,
	// field by field in wire order, and returns the advanced walk.
	fields(w walk) walk
}

// Errors surfaced by the codec.
var (
	ErrTruncated   = errors.New("msg: truncated message")
	ErrUnknownType = errors.New("msg: unknown message type")
	ErrTrailing    = errors.New("msg: trailing bytes after message")
	ErrNestedBatch = errors.New("msg: batch nested inside batch")

	errFlag = errors.New("msg: snapshot flag is neither 0 nor 1")
)

// Encode serializes m as [type byte | body] into a fresh buffer.
// Hot paths should prefer EncodeTo with a reused or pooled buffer.
func Encode(m Message) []byte {
	return EncodeTo(make([]byte, 0, 64), m)
}

// EncodeTo appends the serialization of m ([type byte | body]) to buf
// and returns the extended slice. With a buffer of sufficient capacity
// (e.g. one obtained from GetBuf and reused across calls) encoding
// performs zero heap allocations.
func EncodeTo(buf []byte, m Message) []byte {
	return m.fields(walk{b: append(buf, byte(m.Type()))}).b
}

// Buf is a pooled, reusable encode buffer. Callers append into B
// (typically via EncodeTo(b.B[:0], m), storing the result back into B so
// growth is retained) and return the Buf with PutBuf once the encoded
// bytes are no longer referenced.
type Buf struct{ B []byte }

var bufPool = sync.Pool{
	New: func() any { return &Buf{B: make([]byte, 0, 512)} },
}

// GetBuf returns a pooled encode buffer with zero length.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// PutBuf returns b to the pool. The caller must not retain b.B.
func PutBuf(b *Buf) {
	if cap(b.B) > MaxFrame {
		// Don't let one huge message pin a giant buffer in the pool.
		b.B = make([]byte, 0, 512)
	}
	bufPool.Put(b)
}

// Decode parses a message produced by Encode. It rejects trailing
// bytes. The returned message owns its memory; hot receive paths prefer
// DecodeRecycled, which backs the steady-state types with pooled
// storage.
func Decode(b []byte) (Message, error) {
	// The pooled record only carries the walk's state: with heap set it
	// hands out no slab or arena storage.
	rec := getRecord()
	rec.heap = true
	m, err := decodeFrame(b, rec)
	putRecord(rec)
	return m, err
}

// decodeFrame parses one frame, keeping the walk's state in rec. Unless
// rec.heap is set, the hot message types and their payloads come from
// rec's slabs and arena.
func decodeFrame(b []byte, rec *Record) (Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	t := Type(b[0])
	m := rec.newMessage(t)
	owned := m == nil
	if owned {
		if t >= maxType || kinds[t].new == nil {
			return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(t))
		}
		m = kinds[t].new()
	}
	outer := rec.owned // a Batch entry's walk nests inside the Batch's
	rec.owned = owned
	w := m.fields(walk{b: b[1:], rec: rec})
	rec.owned = outer
	if rec.err != nil {
		return nil, rec.err
	}
	if len(w.b) != 0 {
		return nil, ErrTrailing
	}
	return m, nil
}

// walk is one pass over a message body. Encoding (rec nil) appends each
// field to b; decoding reads each field off the front of b into the
// same field, copying byte fields into rec's arena, or onto the heap
// when rec.owned is set. The first decode failure empties b and is kept
// in rec.err, which turns every later step into a no-op (or a further
// failure that does not replace it). A walk is just a slice and a
// pointer, passed and returned by value, so it stays in registers
// across the interface call and the chained steps.
//
// Fixed-width fields are little-endian; replica IDs travel as int32,
// byte strings as [len u32 | bytes], lists as [count u32 | entries].
type walk struct {
	b   []byte
	rec *Record
}

func (w walk) decoding() bool { return w.rec != nil }

// failed reports whether decoding has failed; encoding never fails.
func (w walk) failed() bool { return w.rec != nil && w.rec.err != nil }

func (w walk) fail(err error) walk {
	if w.rec.err == nil {
		w.rec.err = err
	}
	w.b = nil
	return w
}

func (w walk) u64(v *uint64) walk {
	switch {
	case !w.decoding():
		w.b = binary.LittleEndian.AppendUint64(w.b, *v)
	case len(w.b) < 8:
		return w.fail(ErrTruncated)
	default:
		*v, w.b = binary.LittleEndian.Uint64(w.b), w.b[8:]
	}
	return w
}

func (w walk) u32(v *uint32) walk {
	switch {
	case !w.decoding():
		w.b = binary.LittleEndian.AppendUint32(w.b, *v)
	case len(w.b) < 4:
		return w.fail(ErrTruncated)
	default:
		*v, w.b = binary.LittleEndian.Uint32(w.b), w.b[4:]
	}
	return w
}

// i64 walks v as the uint64 with the same bits.
func (w walk) i64(v *int64) walk { return w.u64((*uint64)(unsafe.Pointer(v))) }

func (w walk) id(v *types.ReplicaID) walk {
	switch {
	case !w.decoding():
		w.b = binary.LittleEndian.AppendUint32(w.b, uint32(int32(*v)))
	case len(w.b) < 4:
		return w.fail(ErrTruncated)
	default:
		*v, w.b = types.ReplicaID(int32(binary.LittleEndian.Uint32(w.b))), w.b[4:]
	}
	return w
}

func (w walk) epoch(e *types.Epoch) walk { return w.u64((*uint64)(e)) }

func (w walk) ts(t *types.Timestamp) walk { return w.i64(&t.Wall).id(&t.Node) }

func (w walk) cmd(c *types.Command) walk {
	return w.id(&c.ID.Origin).u64(&c.ID.Seq).bytes(&c.Payload)
}

// bytes walks a length-prefixed byte string. A decoded one is never
// nil, even when empty.
func (w walk) bytes(p *[]byte) walk {
	if !w.decoding() {
		if len(*p) > math.MaxUint32 {
			// Commands are client payloads capped far below 4 GiB in
			// practice; truncating here would corrupt state, so refuse.
			panic("msg: payload exceeds 4GiB")
		}
		w.b = append(binary.LittleEndian.AppendUint32(w.b, uint32(len(*p))), *p...)
		return w
	}
	var n uint32
	if w = w.u32(&n); w.failed() {
		return w
	}
	// Both checks must precede the allocation: the remaining-buffer check
	// catches truncation, the absolute cap catches corrupt lengths on
	// inputs that are not themselves frame-size-bounded.
	if n > MaxFrame || uint64(len(w.b)) < uint64(n) {
		return w.fail(ErrTruncated)
	}
	if w.rec.owned {
		*p = append(make([]byte, 0, n), w.b[:n]...)
	} else {
		// Hot-path decode: the copy lives in the record's arena and is
		// reclaimed wholesale when the record is recycled.
		*p = w.rec.bytes(w.b[:n])
	}
	w.b = w.b[n:]
	return w
}

// tsCmds walks a command list. A decoded one is never nil, even when
// empty.
func (w walk) tsCmds(cs *[]TimestampedCommand) walk {
	n := uint32(len(*cs))
	if w = w.u32(&n); w.decoding() {
		// Each entry occupies at least 24 bytes on the wire; bound the
		// pre-allocation so a corrupt count cannot trigger a huge one.
		*cs = make([]TimestampedCommand, 0, min(int(n), len(w.b)/24+1))
	}
	for i := 0; i < int(n) && !w.failed(); i++ {
		if w.decoding() {
			*cs = append(*cs, TimestampedCommand{})
		}
		c := &(*cs)[i]
		w = w.ts(&c.TS).cmd(&c.Cmd)
	}
	return w
}

// snap walks the optional checkpoint a log transfer carries: a flag
// byte (exactly 0 or 1, so every accepted frame re-encodes to itself),
// then, when set, the snapshot's timestamp and bytes.
func (w walk) snap(has *bool, ts *types.Timestamp, p *[]byte) walk {
	switch {
	case !w.decoding() && *has:
		w.b = append(w.b, 1)
	case !w.decoding():
		w.b = append(w.b, 0)
	case len(w.b) < 1:
		return w.fail(ErrTruncated)
	case w.b[0] > 1:
		return w.fail(errFlag)
	default:
		*has, w.b = w.b[0] == 1, w.b[1:]
	}
	if *has {
		w = w.ts(ts).bytes(p)
	}
	return w
}
