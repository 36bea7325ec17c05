package msg

import "sync"

// Record is a pooled decode arena. One checked-out Record backs all the
// storage a single wire frame's steady-state messages need — the
// message structs of the hot types (Prepare, PrepareOK, ClockTime and
// the Batch container) come from typed grow-only slabs, and command
// payloads are copied into one shared byte arena — so once the pool and
// the slabs are warm, DecodeRecycled performs zero heap allocations per
// frame. This is the receive-side counterpart of the encode-side Buf
// pool. A Record also holds the decode walk's state, so Decode checks
// one out too, in a heap mode that uses none of its storage.
//
// Ownership contract: messages handed out by DecodeRecycled (and, for a
// Batch, the messages packed inside it) live in pooled storage and are
// valid only until Recycle is called on the top-level message. In the
// runtime, the node event loop recycles after the protocol's Deliver
// returns, so a protocol that wants to retain a delivered hot message —
// or any byte slice reachable from it, such as a command payload —
// beyond the Deliver call must copy it first. core does exactly that:
// command payloads are copied when they enter the pending set, and
// future-epoch messages are cloned before they are parked. Every other
// message type decodes into ordinary heap memory it owns, so retaining
// those (the reconfiguration, state-transfer and consensus paths) is
// always safe, even when they arrive packed in a recycled Batch.
type Record struct {
	// top is the message this record currently backs; Recycle uses it
	// to ignore duplicate calls and copies of pooled messages.
	top Message

	arena      []byte // command payload bytes of hot messages
	prepares   []Prepare
	prepareOKs []PrepareOK
	clockTimes []ClockTime
	msgs       []Message // Batch.Msgs backing
	batch      Batch     // batches cannot nest, so one per frame suffices

	// The decode walk's state: its first failure, whether the whole
	// frame owns its memory (Decode: no slab or arena storage at all),
	// and whether the message being walked does (every type but the hot
	// ones: its byte fields go to the heap).
	err         error
	heap, owned bool
}

// Retention caps: one pathological frame (a huge payload or an enormous
// batch) must not pin its buffers in the pool forever, mirroring
// PutBuf's cap on encode buffers.
const (
	maxRecordArena = 1 << 20
	maxRecordSlab  = 4096
)

var recordPool = sync.Pool{New: func() any { return new(Record) }}

// getRecord checks a record out of the pool, ready for a fresh decode.
func getRecord() *Record {
	r := recordPool.Get().(*Record)
	r.reset()
	return r
}

// reset prepares a pooled record for a fresh decode.
func (r *Record) reset() {
	r.top, r.err, r.heap, r.owned = nil, nil, false, false
	if r.arena == nil {
		// A non-nil empty arena makes zero-length payload slices non-nil,
		// matching what the copying decoder returns for them.
		r.arena = make([]byte, 0, 512)
	}
	r.arena = r.arena[:0]
	r.prepares = r.prepares[:0]
	r.prepareOKs = r.prepareOKs[:0]
	r.clockTimes = r.clockTimes[:0]
	r.msgs = r.msgs[:0]
	r.batch = Batch{}
}

// putRecord returns r to the pool, dropping oversized buffers and any
// heap-allocated messages a batch slab still references.
func putRecord(r *Record) {
	r.top = nil
	for i := range r.msgs {
		r.msgs[i] = nil
	}
	if cap(r.arena) > maxRecordArena {
		r.arena = nil
	}
	if cap(r.prepares) > maxRecordSlab {
		r.prepares = nil
	}
	if cap(r.prepareOKs) > maxRecordSlab {
		r.prepareOKs = nil
	}
	if cap(r.clockTimes) > maxRecordSlab {
		r.clockTimes = nil
	}
	if cap(r.msgs) > maxRecordSlab {
		r.msgs = nil
	}
	recordPool.Put(r)
}

// bytes copies p into the record's arena and returns the copy, valid
// until the record is recycled. Growth reallocates the arena; slices
// handed out earlier keep pointing at the old backing array, which the
// garbage collector keeps alive for them.
func (r *Record) bytes(p []byte) []byte {
	off := len(r.arena)
	r.arena = append(r.arena, p...)
	return r.arena[off:len(r.arena):len(r.arena)]
}

// newMessage hands out an empty message of a hot type t from the
// record's slabs, or nil for every other type and in heap mode.
func (r *Record) newMessage(t Type) Message {
	if r.heap {
		return nil
	}
	switch t {
	case TPrepare:
		return slabEntry(&r.prepares)
	case TPrepareOK:
		return slabEntry(&r.prepareOKs)
	case TClockTime:
		return slabEntry(&r.clockTimes)
	case TBatch:
		// Batches cannot nest, so the record's single embedded Batch is
		// always free here.
		return &r.batch
	}
	return nil
}

// slabEntry appends a zeroed entry to a slab and returns it; the slab
// grows only when warm capacity runs out, so steady state allocates
// nothing.
func slabEntry[T any](slab *[]T) *T {
	var zero T
	*slab = append(*slab, zero)
	return &(*slab)[len(*slab)-1]
}

// DecodeRecycled parses a message produced by Encode, like Decode, but
// backs the steady-state message types with pooled storage: the caller
// MUST call Recycle on the returned message once it (and, for a Batch,
// every message packed inside it) is no longer referenced, and must
// copy anything it wants to retain past that point. Messages of types
// outside the steady state own their memory as with Decode; Recycle is
// a safe no-op for them. On a warm pool the whole decode performs zero
// heap allocations for hot-type frames.
func DecodeRecycled(b []byte) (Message, error) {
	rec := getRecord()
	m, err := decodeFrame(b, rec)
	if err != nil || !recordBacked(m) {
		putRecord(rec)
		return m, err
	}
	rec.top = m
	setRecord(m, rec)
	return m, nil
}

// recordBacked reports whether a record-mode decode allocated m from
// the record's slabs (exactly the hot types).
func recordBacked(m Message) bool {
	switch m.(type) {
	case *Prepare, *PrepareOK, *ClockTime, *Batch:
		return true
	}
	return false
}

// setRecord stamps the top-level message with its backing record.
func setRecord(m Message, rec *Record) {
	switch mm := m.(type) {
	case *Prepare:
		mm.rec = rec
	case *PrepareOK:
		mm.rec = rec
	case *ClockTime:
		mm.rec = rec
	case *Batch:
		mm.rec = rec
	}
}

// Recycle returns the pooled storage behind a message obtained from
// DecodeRecycled. It is safe to call on any message: messages that were
// not produced by DecodeRecycled — including value copies of pooled
// messages, whose pointer identity differs from the record's — and
// repeated calls are no-ops. After Recycle, the message, the messages
// packed in it (for a Batch), and every byte slice reachable from them
// are invalid.
func Recycle(m Message) {
	var rec *Record
	switch mm := m.(type) {
	case *Prepare:
		rec = mm.rec
	case *PrepareOK:
		rec = mm.rec
	case *ClockTime:
		rec = mm.rec
	case *Batch:
		rec = mm.rec
	default:
		return
	}
	if rec == nil || rec.top != m {
		return
	}
	putRecord(rec)
}
