package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"clockrsm/internal/types"
)

func sampleBatch() *Batch {
	ts := types.Timestamp{Wall: 777, Node: 2}
	return &Batch{Msgs: []Message{
		&PrepareOK{Epoch: 3, TS: ts, ClockTS: 801},
		&PrepareOK{Epoch: 3, TS: types.Timestamp{Wall: 778, Node: 2}, ClockTS: 802},
		&Prepare{Epoch: 3, TS: ts, Cmd: types.Command{
			ID: types.CommandID{Origin: 2, Seq: 9}, Payload: []byte("put k v"),
		}},
		&ClockTime{Epoch: 3, TS: 803},
	}}
}

func TestBatchRoundTrip(t *testing.T) {
	roundTrip(t, sampleBatch())
	roundTrip(t, &Batch{Msgs: []Message{}})
	roundTrip(t, &Batch{Msgs: []Message{&Commit{Slot: 9}}})
}

func TestBatchRejectsNested(t *testing.T) {
	inner := &Batch{Msgs: []Message{&Commit{Slot: 1}}}
	outer := &Batch{Msgs: []Message{inner}}
	if _, err := Decode(Encode(outer)); err == nil {
		t.Error("nested batch decoded without error")
	}
}

func TestBatchRejectsCorruptLengths(t *testing.T) {
	wire := Encode(sampleBatch())
	// Corrupt the first entry's length prefix (bytes 5..8) to an absurd
	// value: decode must fail with ErrTruncated, not attempt a huge
	// allocation.
	for _, l := range []uint32{0, 1 << 30, 0xFFFFFFFF} {
		bad := append([]byte(nil), wire...)
		binary.LittleEndian.PutUint32(bad[5:9], l)
		if _, err := Decode(bad); err == nil {
			t.Errorf("corrupt entry length %d decoded without error", l)
		}
	}
	// Corrupt the count.
	bad := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(bad[1:5], 0xFFFFFFFF)
	if _, err := Decode(bad); err == nil {
		t.Error("corrupt batch count decoded without error")
	}
	// Every truncation must error.
	for cut := 1; cut < len(wire); cut++ {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", cut, len(wire))
		}
	}
}

func TestEncodeToMatchesEncode(t *testing.T) {
	for _, m := range append(sampleMessages(), sampleBatch()) {
		want := Encode(m)
		got := EncodeTo(nil, m)
		if !bytes.Equal(want, got) {
			t.Errorf("EncodeTo mismatch for %v", m.Type())
		}
		// Appending semantics: existing prefix is preserved.
		withPrefix := EncodeTo([]byte("abc"), m)
		if !bytes.Equal(withPrefix[:3], []byte("abc")) || !bytes.Equal(withPrefix[3:], want) {
			t.Errorf("EncodeTo did not append for %v", m.Type())
		}
	}
}

// TestEncodeToPooledZeroAllocs checks that encoding any message type
// into a warm pooled buffer allocates nothing.
func TestEncodeToPooledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; zero-alloc assertion only holds without -race")
	}
	for _, m := range append(sampleMessages(), sampleBatch()) {
		encode := func() {
			buf := GetBuf()
			buf.B = EncodeTo(buf.B, m)
			PutBuf(buf)
		}
		encode()
		if avg := testing.AllocsPerRun(100, encode); avg != 0 {
			t.Errorf("%v: EncodeTo into a pooled buffer allocates %.1f allocs/op, want 0", m.Type(), avg)
		}
	}
}

func TestGetBytesRejectsHugeLength(t *testing.T) {
	// A P2a whose value length prefix claims more than MaxFrame: the
	// decoder must reject it before allocating.
	wire := Encode(&P2a{Instance: 1, Ballot: 1})
	binary.LittleEndian.PutUint32(wire[len(wire)-4:], MaxFrame+1) // absurd value length
	if _, err := Decode(wire); err == nil {
		t.Error("length prefix beyond MaxFrame decoded without error")
	}
}

// TestBufPoolConcurrentReuse hammers the buffer pool from many
// goroutines, checking that reused buffers never corrupt concurrent
// encodes.
func TestBufPoolConcurrentReuse(t *testing.T) {
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := &PrepareOK{
					Epoch:   types.Epoch(g),
					TS:      types.Timestamp{Wall: int64(i), Node: types.ReplicaID(g)},
					ClockTS: int64(g*iters + i),
				}
				buf := GetBuf()
				buf.B = EncodeTo(buf.B, m)
				got, err := Decode(buf.B)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, i, err)
					PutBuf(buf)
					return
				}
				if !reflect.DeepEqual(m, got) {
					errs <- fmt.Errorf("goroutine %d iter %d: round trip mismatch", g, i)
					PutBuf(buf)
					return
				}
				PutBuf(buf)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzDecode throws arbitrary bytes at the decoder: it must never
// panic, and anything it accepts must re-encode and decode to the same
// message.
func FuzzDecode(f *testing.F) {
	for _, m := range append(sampleMessages(), sampleBatch()) {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TBatch), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("re-encode round trip mismatch:\n first %+v\n again %+v", m, again)
		}
	})
}

func BenchmarkEncodeTo(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			m := benchPrepare(size)
			buf := make([]byte, 0, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = EncodeTo(buf[:0], m)
			}
		})
	}
}

func BenchmarkEncodeToPooled(b *testing.B) {
	m := benchPrepare(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		buf.B = EncodeTo(buf.B, m)
		PutBuf(buf)
	}
}

func BenchmarkBatchRoundTrip(b *testing.B) {
	m := sampleBatch()
	wire := Encode(m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
