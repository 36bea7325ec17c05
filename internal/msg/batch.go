package msg

import "encoding/binary"

// Batch packs several messages from one sender into a single wire
// frame: one length prefix, one type byte and one transport frame
// instead of N. Senders use it to coalesce bursts — e.g. the PREPAREOKs
// a Clock-RSM replica produces while draining one event-loop batch —
// so the per-message framing, queueing and syscall overhead is paid
// once per burst. Receivers process the packed messages in order, as if
// they had arrived back-to-back on the same FIFO link, so a Batch never
// weakens the per-sender ordering guarantees the protocols rely on.
//
// Batches must not nest: the decoder rejects a TBatch entry inside a
// Batch, bounding decode recursion at one level.
type Batch struct {
	Msgs []Message

	// rec backs this batch when it came from DecodeRecycled; see Recycle.
	rec *Record
}

// Type implements Message.
func (*Batch) Type() Type { return TBatch }

// Wire format: [count u32] then per message [len u32 | type byte | body].
// The entries are whole frames, so the two directions part ways after
// the count: encoding nests EncodeTo, decoding nests decodeFrame.
func (m *Batch) fields(w walk) walk {
	n := uint32(len(m.Msgs))
	if w = w.u32(&n); !w.decoding() {
		for _, sub := range m.Msgs {
			// Reserve the length prefix, encode in place, then backfill it:
			// this keeps encoding single-pass and allocation-free.
			off := len(w.b)
			w.b = EncodeTo(append(w.b, 0, 0, 0, 0), sub)
			binary.LittleEndian.PutUint32(w.b[off:], uint32(len(w.b)-off-4))
		}
		return w
	}
	var msgs []Message
	if !w.rec.owned {
		// Record-backed decode: the entry slice (and the hot entries
		// themselves) come from the record's slabs, grow-only across
		// reuses, so a warm record decodes the whole batch without
		// allocating.
		msgs = w.rec.msgs[:0]
	} else {
		// Each entry occupies at least 5 bytes on the wire; bound the
		// pre-allocation so a corrupt count cannot trigger a huge one.
		msgs = make([]Message, 0, min(int(n), len(w.b)/5+1))
	}
	for i := uint32(0); i < n && !w.failed(); i++ {
		var l uint32
		if w = w.u32(&l); w.failed() {
			break
		}
		if l == 0 || l > MaxFrame || uint64(len(w.b)) < uint64(l) {
			return w.fail(ErrTruncated)
		}
		if Type(w.b[0]) == TBatch {
			return w.fail(ErrNestedBatch)
		}
		sub, err := decodeFrame(w.b[:l], w.rec)
		if err != nil {
			return w.fail(err)
		}
		msgs, w.b = append(msgs, sub), w.b[l:]
	}
	m.Msgs = msgs
	if !w.rec.owned {
		w.rec.msgs = msgs
	}
	return w
}
