package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"clockrsm/internal/types"
)

// reEncode serializes m for comparison. Record-backed and heap-backed
// decodes of the same frame differ in their unexported rec back-pointer,
// so equivalence checks compare wire bytes, not struct values.
func reEncode(t testing.TB, m Message) []byte {
	t.Helper()
	return Encode(m)
}

// TestDecodeRecycledMatchesDecode checks, for every message type, that
// DecodeRecycled accepts exactly what Decode accepts and produces a
// message that re-encodes to the same bytes.
func TestDecodeRecycledMatchesDecode(t *testing.T) {
	for _, m := range append(sampleMessages(), sampleBatch()) {
		wire := Encode(m)
		want, err := Decode(wire)
		if err != nil {
			t.Fatalf("%v: Decode: %v", m.Type(), err)
		}
		got, err := DecodeRecycled(wire)
		if err != nil {
			t.Fatalf("%v: DecodeRecycled: %v", m.Type(), err)
		}
		if !bytes.Equal(reEncode(t, want), reEncode(t, got)) {
			t.Errorf("%v: DecodeRecycled result re-encodes differently", m.Type())
		}
		Recycle(got)
	}
}

// TestDecodeRecycledDirtyRecord decodes a large frame to dirty the
// pooled record, recycles it, then checks that decoding a different
// frame into the now-dirty record yields exactly what a fresh heap
// decode yields. This is the reuse-correctness property the pool relies
// on: no state may leak between consecutive decodes.
func TestDecodeRecycledDirtyRecord(t *testing.T) {
	big := &Batch{}
	for i := 0; i < 32; i++ {
		big.Msgs = append(big.Msgs, &Prepare{
			Epoch: 9,
			TS:    types.Timestamp{Wall: int64(1000 + i), Node: 4},
			Cmd: types.Command{
				ID:      types.CommandID{Origin: 4, Seq: uint64(i)},
				Payload: bytes.Repeat([]byte{0xAB}, 200),
			},
		})
	}
	dirty, err := DecodeRecycled(Encode(big))
	if err != nil {
		t.Fatal(err)
	}
	Recycle(dirty)

	for _, m := range append(sampleMessages(), sampleBatch()) {
		wire := Encode(m)
		fresh, err := Decode(wire)
		if err != nil {
			t.Fatalf("%v: Decode: %v", m.Type(), err)
		}
		reused, err := DecodeRecycled(wire)
		if err != nil {
			t.Fatalf("%v: DecodeRecycled into dirty record: %v", m.Type(), err)
		}
		if !bytes.Equal(reEncode(t, fresh), reEncode(t, reused)) {
			t.Errorf("%v: dirty-record decode differs from fresh decode", m.Type())
		}
		Recycle(reused)
	}
}

// TestDecodeRecycledZeroAllocs locks in the tentpole property: once the
// pool is warm, the steady-state decode path performs zero heap
// allocations per frame.
func TestDecodeRecycledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only holds without -race")
	}
	hotBatch := &Batch{Msgs: []Message{
		&PrepareOK{Epoch: 3, TS: types.Timestamp{Wall: 777, Node: 2}, ClockTS: 801},
		&PrepareOK{Epoch: 3, TS: types.Timestamp{Wall: 778, Node: 2}, ClockTS: 802},
		&Prepare{Epoch: 3, TS: types.Timestamp{Wall: 779, Node: 2}, Cmd: types.Command{
			ID: types.CommandID{Origin: 2, Seq: 9}, Payload: bytes.Repeat([]byte{0x42}, 100),
		}},
		&ClockTime{Epoch: 3, TS: 803},
	}}
	cases := []struct {
		name string
		m    Message
	}{
		{"Prepare", benchPrepare(100)},
		{"PrepareOK", &PrepareOK{Epoch: 1, TS: types.Timestamp{Wall: 9, Node: 1}, ClockTS: 10}},
		{"ClockTime", &ClockTime{Epoch: 1, TS: 11}},
		{"Batch", hotBatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := Encode(tc.m)
			decodeOnce := func() {
				m, err := DecodeRecycled(wire)
				if err != nil {
					t.Fatal(err)
				}
				Recycle(m)
			}
			// Warm the pool, the record slabs and the arena before measuring.
			for i := 0; i < 8; i++ {
				decodeOnce()
			}
			if avg := testing.AllocsPerRun(100, decodeOnce); avg != 0 {
				t.Errorf("steady-state DecodeRecycled allocates %.1f allocs/op, want 0", avg)
			}
		})
	}
}

// TestRecycleIdentityGuard checks the safety properties of Recycle: it
// must be a no-op on heap-decoded messages, on value copies of pooled
// messages, and on a second call for the same message.
func TestRecycleIdentityGuard(t *testing.T) {
	wire := Encode(benchPrepare(32))

	// Heap decode: Recycle is a no-op.
	heap, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	Recycle(heap)

	// Value copy of a pooled message: recycling the copy must NOT return
	// the record (the original still owns it), so the original's payload
	// stays intact.
	pooled, err := DecodeRecycled(wire)
	if err != nil {
		t.Fatal(err)
	}
	orig := pooled.(*Prepare)
	cp := *orig
	Recycle(&cp) // must be a no-op: &cp != record's top
	before := append([]byte(nil), orig.Cmd.Payload...)
	// Trigger pool churn: if the record had been returned, this decode
	// would scribble over orig's arena-backed payload.
	other, err := DecodeRecycled(Encode(benchPrepare(32)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Cmd.Payload, before) {
		t.Error("recycling a value copy released the original's storage")
	}
	Recycle(other)
	Recycle(orig)
	Recycle(orig) // double recycle: no-op
}

// TestDecodeRecycledEmptyPayload checks that an arena-backed empty
// payload is non-nil, matching the heap decoder's make([]byte, 0).
func TestDecodeRecycledEmptyPayload(t *testing.T) {
	m := &Prepare{Epoch: 1, TS: types.Timestamp{Wall: 5, Node: 0},
		Cmd: types.Command{ID: types.CommandID{Origin: 0, Seq: 1}}}
	got, err := DecodeRecycled(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	p := got.(*Prepare)
	if p.Cmd.Payload == nil {
		t.Error("record-backed decode of empty payload returned nil slice")
	}
	if len(p.Cmd.Payload) != 0 {
		t.Errorf("empty payload decoded to %d bytes", len(p.Cmd.Payload))
	}
	Recycle(got)
}

// TestPutRecordDropsOversizedBuffers checks the pool retention caps: a
// pathological frame must not pin its buffers once recycled.
func TestPutRecordDropsOversizedBuffers(t *testing.T) {
	r := new(Record)
	r.reset()
	r.arena = make([]byte, 0, maxRecordArena+1)
	r.prepares = make([]Prepare, 0, maxRecordSlab+1)
	r.prepareOKs = make([]PrepareOK, 0, maxRecordSlab+1)
	r.clockTimes = make([]ClockTime, 0, maxRecordSlab+1)
	r.msgs = make([]Message, 0, maxRecordSlab+1)
	putRecord(r)
	if r.arena != nil || r.prepares != nil || r.prepareOKs != nil ||
		r.clockTimes != nil || r.msgs != nil {
		t.Error("putRecord retained oversized buffers")
	}
}

// TestBatchEntryAtMaxFrame exercises the MaxFrame boundary inside a
// Batch: an entry whose length prefix claims exactly MaxFrame but whose
// body is absent must be rejected, as must MaxFrame+1; a genuine entry
// close to the limit must round-trip through both decoders.
func TestBatchEntryAtMaxFrame(t *testing.T) {
	for _, l := range []uint32{MaxFrame, MaxFrame + 1} {
		wire := binary.LittleEndian.AppendUint32([]byte{byte(TBatch)}, 1) // one entry
		wire = binary.LittleEndian.AppendUint32(wire, l)                  // entry length prefix, no body
		if _, err := Decode(wire); err == nil {
			t.Errorf("batch entry claiming %d bytes decoded without error", l)
		}
		if m, err := DecodeRecycled(wire); err == nil {
			Recycle(m)
			t.Errorf("DecodeRecycled: batch entry claiming %d bytes accepted", l)
		}
	}
	if testing.Short() {
		t.Skip("skipping large-frame round trip in -short mode")
	}
	// A real entry near the boundary (a Prepare whose payload pushes the
	// entry length close to MaxFrame) must decode on both paths, and the
	// recycled record must not retain the huge arena afterwards.
	big := &Batch{Msgs: []Message{&Prepare{
		Epoch: 1,
		TS:    types.Timestamp{Wall: 1, Node: 0},
		Cmd: types.Command{
			ID:      types.CommandID{Origin: 0, Seq: 1},
			Payload: make([]byte, MaxFrame-64),
		},
	}}}
	wire := Encode(big)
	if _, err := Decode(wire); err != nil {
		t.Fatalf("near-MaxFrame batch rejected by Decode: %v", err)
	}
	m, err := DecodeRecycled(wire)
	if err != nil {
		t.Fatalf("near-MaxFrame batch rejected by DecodeRecycled: %v", err)
	}
	rec := m.(*Batch).rec
	Recycle(m)
	if rec.arena != nil {
		t.Error("recycling a near-MaxFrame batch retained its arena")
	}
}

// FuzzDecodeRecycled checks pooled-decode equivalence under arbitrary
// inputs: decoding into a deliberately dirtied, reused record must
// accept exactly the same inputs as the heap decoder, and every input
// either decoder accepts must be canonical — both decoded messages
// re-encode to exactly the input bytes. (Struct comparison would be
// confounded by the unexported record back-pointer, so equivalence is
// over re-encoded bytes.)
func FuzzDecodeRecycled(f *testing.F) {
	for _, m := range append(sampleMessages(), sampleBatch()) {
		f.Add(Encode(m))
	}
	// MaxFrame boundary inside a batch: claimed entry lengths at and just
	// past the cap.
	edge := binary.LittleEndian.AppendUint32([]byte{byte(TBatch)}, 1)
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), edge...), MaxFrame))
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), edge...), MaxFrame+1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Dirty the pooled record first so the fuzz exercises reuse, not
		// just fresh records.
		dirty, derr := DecodeRecycled(Encode(sampleBatch()))
		if derr != nil {
			t.Fatal(derr)
		}
		Recycle(dirty)

		want, werr := Decode(data)
		got, gerr := DecodeRecycled(data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("accept mismatch: Decode err=%v, DecodeRecycled err=%v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if heap, pooled := Encode(want), Encode(got); !bytes.Equal(heap, data) || !bytes.Equal(pooled, data) {
			t.Fatalf("accepted frame is not canonical:\n input  %x\n heap   %x\n pooled %x", data, heap, pooled)
		}
		Recycle(got)
	})
}

// BenchmarkDecode compares the heap and pooled decoders on the
// steady-state Prepare frame.
func BenchmarkDecode(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		wire := Encode(benchPrepare(size))
		b.Run(fmt.Sprintf("heap/%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("recycled/%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := DecodeRecycled(wire)
				if err != nil {
					b.Fatal(err)
				}
				Recycle(m)
			}
		})
	}
}

// BenchmarkDecodeBatch decodes a hot-type batch — the shape the wire
// actually carries under load (PREPAREOK bursts with the occasional
// PREPARE) — on both paths.
func BenchmarkDecodeBatch(b *testing.B) {
	batch := &Batch{}
	for i := 0; i < 16; i++ {
		batch.Msgs = append(batch.Msgs, &PrepareOK{
			Epoch: 1, TS: types.Timestamp{Wall: int64(i), Node: 1}, ClockTS: int64(i),
		})
	}
	batch.Msgs = append(batch.Msgs, benchPrepare(100))
	wire := Encode(batch)
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := DecodeRecycled(wire)
			if err != nil {
				b.Fatal(err)
			}
			Recycle(m)
		}
	})
}
