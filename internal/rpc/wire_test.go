package rpc

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"clockrsm/internal/node"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Verb: VPut, Key: []byte("k"), Value: []byte("v")},
		{ID: 2, Verb: VGet, Key: []byte("key")},
		{ID: 3, Verb: VDel, Key: []byte{}, Value: nil},
		{ID: 4, Verb: VGetL, Key: []byte("x")},
		{ID: 5, Verb: VGetS, Key: []byte("x"), Session: 1 << 60},
		{ID: 6, Verb: VGetA, Key: []byte("x"), MaxAge: 5e9},
		{ID: 7, Verb: VAdmin, Value: []byte("STATUS")},
		{ID: ^uint64(0), Verb: VPut, Key: bytes.Repeat([]byte("K"), 100<<10), Value: bytes.Repeat([]byte("V"), 200<<10)},
		{ID: 9, Verb: VPut, Key: []byte("k"), Value: []byte{}}, // empty ≠ nil
	}
	var buf []byte
	for _, want := range cases {
		frame := AppendRequest(nil, &want)
		r := bytes.NewReader(frame)
		payload, err := ReadFrame(r, &buf)
		if err != nil {
			t.Fatalf("%v: ReadFrame: %v", want.Verb, err)
		}
		var got Request
		if err := DecodeRequest(payload, &got); err != nil {
			t.Fatalf("%v: DecodeRequest: %v", want.Verb, err)
		}
		if got.ID != want.ID || got.Verb != want.Verb || got.Session != want.Session || got.MaxAge != want.MaxAge {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.Key, want.Key) || (got.Key == nil) != (want.Key == nil) {
			t.Fatalf("%v: key mismatch: got %q (nil=%v) want %q", want.Verb, got.Key, got.Key == nil, want.Key)
		}
		if !bytes.Equal(got.Value, want.Value) || (got.Value == nil) != (want.Value == nil) {
			t.Fatalf("%v: value mismatch: got %q (nil=%v) want %q (nil=%v)", want.Verb, got.Value, got.Value == nil, want.Value, want.Value == nil)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Status: StatusOK, Value: []byte("prev")},
		{ID: 2, Status: StatusOK, Value: nil},
		{ID: 3, Status: StatusOK, Value: []byte{}},
		{ID: 4, Status: StatusOverloaded},
		{ID: 5, Status: StatusNotInConfig},
		{ID: 6, Status: StatusErr, Value: []byte("boom")},
		{ID: 7, Status: StatusOK, Watermark: 1 << 50},
	}
	var buf []byte
	for _, want := range cases {
		frame := AppendResponse(nil, &want)
		payload, err := ReadFrame(bytes.NewReader(frame), &buf)
		if err != nil {
			t.Fatalf("%v: ReadFrame: %v", want.Status, err)
		}
		var got Response
		if err := DecodeResponse(payload, &got); err != nil {
			t.Fatalf("%v: DecodeResponse: %v", want.Status, err)
		}
		if got.ID != want.ID || got.Status != want.Status || got.Watermark != want.Watermark {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.Value, want.Value) || (got.Value == nil) != (want.Value == nil) {
			t.Fatalf("%v: value mismatch: got %q (nil=%v) want %q (nil=%v)", want.Status, got.Value, got.Value == nil, want.Value, want.Value == nil)
		}
	}
}

// TestPipelinedFrames streams several frames through one buffer and one
// reused read buffer — the steady-state connection shape.
func TestPipelinedFrames(t *testing.T) {
	var wire []byte
	const n = 64
	for i := 0; i < n; i++ {
		wire = AppendRequest(wire, &Request{ID: uint64(i), Verb: VPut, Key: []byte{byte(i)}, Value: bytes.Repeat([]byte{byte(i)}, i)})
	}
	r := bytes.NewReader(wire)
	var buf []byte
	for i := 0; i < n; i++ {
		payload, err := ReadFrame(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var req Request
		if err := DecodeRequest(payload, &req); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.ID != uint64(i) || len(req.Value) != i {
			t.Fatalf("frame %d decoded as %+v", i, req)
		}
	}
	if _, err := ReadFrame(r, &buf); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Length prefix above MaxFrame must be rejected before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	var buf []byte
	if _, err := ReadFrame(bytes.NewReader(huge), &buf); !errors.Is(err, errFrame) {
		t.Fatalf("oversized frame: got %v, want errFrame", err)
	}
	// Truncated payload must surface ErrUnexpectedEOF, not hang or OK.
	frame := AppendRequest(nil, &Request{ID: 1, Verb: VPut, Key: []byte("k"), Value: []byte("v")})
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestMagic(t *testing.T) {
	var b bytes.Buffer
	if err := WriteMagic(&b); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(bytes.NewReader(b.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(bytes.NewReader([]byte("GET "))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("line-protocol bytes on rpc port: got %v, want ErrBadMagic", err)
	}
}

func TestStatusErrMapping(t *testing.T) {
	cases := []struct {
		st   Status
		want error
	}{
		{StatusOK, nil},
		{StatusOverloaded, ErrOverloaded},
		{StatusNotInConfig, node.ErrNotInConfig},
		{StatusReconfigured, node.ErrReconfigured},
		{StatusTooStale, node.ErrTooStale},
		{StatusStopped, node.ErrStopped},
		{StatusTimeout, ErrTimeout},
		{StatusBadRequest, ErrBadRequest},
	}
	for _, c := range cases {
		err := c.st.Err(nil)
		if c.want == nil {
			if err != nil {
				t.Fatalf("%v.Err() = %v, want nil", c.st, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Fatalf("%v.Err() = %v, want %v", c.st, err, c.want)
		}
		// And the inverse: StatusFor round-trips the typed sentinel.
		if c.st != StatusBadRequest { // BadRequest is produced by the codec, not mapped from errors
			if got := StatusFor(c.want); got != c.st {
				t.Fatalf("StatusFor(%v) = %v, want %v", c.want, got, c.st)
			}
		}
	}
	if got := StatusFor(errors.New("anything else")); got != StatusErr {
		t.Fatalf("StatusFor(generic) = %v, want StatusErr", got)
	}
}

// TestDecodeBorrowsInput pins the ownership contract: decoded slices
// alias the frame buffer, so overwriting the buffer changes them — the
// documented DecodeRecycled-style "copy what you keep" rule.
func TestDecodeBorrowsInput(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 1, Verb: VPut, Key: []byte("aaaa"), Value: []byte("bbbb")})
	var buf []byte
	payload, err := ReadFrame(bytes.NewReader(frame), &buf)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := DecodeRequest(payload, &req); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	if string(req.Key) != "XXXX" {
		t.Fatalf("decode copied the key (%q); the codec contract is borrow-from-input", req.Key)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var req Request
	if err := DecodeRequest(nil, &req); err == nil {
		t.Fatal("empty payload decoded")
	}
	if err := DecodeRequest(make([]byte, 25), &req); err == nil {
		t.Fatal("verb 0 decoded")
	}
	// Trailing junk after a well-formed body is a framing error.
	frame := AppendRequest(nil, &Request{ID: 1, Verb: VGet, Key: []byte("k")})
	payload := append(frame[4:], 0xEE)
	if err := DecodeRequest(payload, &req); err == nil {
		t.Fatal("trailing bytes decoded")
	}
	var resp Response
	if err := DecodeResponse(nil, &resp); err == nil {
		t.Fatal("empty response payload decoded")
	}
}

// FuzzRPCFrame mirrors msg's FuzzDecodeRecycled: seed with well-formed
// frames, let the fuzzer mangle them, and require that DecodeRequest /
// DecodeResponse either fail cleanly or round-trip losslessly through
// a re-encode — never panic, never mis-frame.
func FuzzRPCFrame(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{ID: 7, Verb: VPut, Key: []byte("key"), Value: []byte("value"), Session: 42, MaxAge: 9}))
	f.Add(AppendRequest(nil, &Request{ID: 1, Verb: VAdmin, Value: []byte("STATUS")}))
	f.Add(AppendResponse(nil, &Response{ID: 3, Status: StatusOK, Value: []byte("v"), Watermark: 11}))
	f.Add(AppendResponse(nil, &Response{ID: 4, Status: StatusOverloaded}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		payload, err := ReadFrame(bytes.NewReader(data), &buf)
		if err != nil {
			return // framing rejected: fine
		}
		var req Request
		if DecodeRequest(payload, &req) == nil {
			re := AppendRequest(nil, &req)
			var req2 Request
			p2, err := ReadFrame(bytes.NewReader(re), &buf)
			if err != nil || DecodeRequest(p2, &req2) != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
			if req2.ID != req.ID || req2.Verb != req.Verb || req2.Session != req.Session || req2.MaxAge != req.MaxAge ||
				!bytes.Equal(req2.Key, req.Key) || !bytes.Equal(req2.Value, req.Value) {
				t.Fatalf("request round-trip mismatch: %+v vs %+v", req, req2)
			}
		}
		var resp Response
		if DecodeResponse(payload, &resp) == nil {
			re := AppendResponse(nil, &resp)
			var resp2 Response
			p2, err := ReadFrame(bytes.NewReader(re), &buf)
			if err != nil || DecodeResponse(p2, &resp2) != nil {
				t.Fatalf("re-encode of decoded response failed: %v", err)
			}
			if resp2.ID != resp.ID || resp2.Status != resp.Status || resp2.Watermark != resp.Watermark ||
				!bytes.Equal(resp2.Value, resp.Value) {
				t.Fatalf("response round-trip mismatch: %+v vs %+v", resp, resp2)
			}
		}
	})
}

func BenchmarkRequestEncodeDecode(b *testing.B) {
	req := Request{ID: 1, Verb: VPut, Key: []byte("benchmark-key"), Value: bytes.Repeat([]byte("v"), 128)}
	frame := AppendRequest(nil, &req)
	scratch := make([]byte, 0, len(frame))
	var buf []byte = make([]byte, len(frame))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = AppendRequest(scratch[:0], &req)
		copy(buf, scratch[4:])
		var got Request
		if err := DecodeRequest(buf[:len(scratch)-4], &got); err != nil {
			b.Fatal(err)
		}
	}
}
