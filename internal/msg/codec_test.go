package msg

import (
	"encoding/hex"
	"reflect"
	"testing"
	"testing/quick"

	"clockrsm/internal/types"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Type(), err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch for %v:\n sent %+v\n got  %+v", m.Type(), m, got)
	}
	return got
}

func sampleMessages() []Message {
	cmd := types.Command{
		ID:      types.CommandID{Origin: 2, Seq: 77},
		Payload: []byte("put k v"),
	}
	ts := types.Timestamp{Wall: 123456789, Node: 3}
	none := types.Timestamp{Node: types.NoReplica}
	noOrigin := types.Command{ID: types.CommandID{Origin: types.NoReplica, Seq: 1}, Payload: []byte{}}
	return []Message{
		&Prepare{Epoch: 4, TS: ts, Cmd: cmd, Sent: 6},
		&PrepareOK{Epoch: 4, TS: ts, ClockTS: 987654321, Sent: 6},
		&ClockTime{Epoch: 4, TS: 5555, Sent: 7},
		&Forward{Cmd: cmd},
		&Accept{Ballot: 9, Slot: 42, Cmd: cmd, CommitIndex: 41},
		&Accepted{Ballot: 9, Slot: 42},
		&Commit{Slot: 42},
		&MAccept{Slot: 17, Cmd: cmd, LowSlot: 22},
		&MAccepted{Slot: 17, LowSlot: 23},
		&MCommit{Slot: 17},
		&Suspend{Epoch: 5, CTS: ts},
		&SuspendOK{Epoch: 5, Cmds: []TimestampedCommand{{TS: ts, Cmd: cmd}}},
		&RetrieveCmds{From: none, To: types.Timestamp{Wall: 222, Node: 1}, Seq: 3},
		&RetrieveReply{Seq: 3, Cmds: []TimestampedCommand{{TS: ts, Cmd: cmd}, {TS: ts, Cmd: cmd}}},
		&P1a{Instance: 1, Ballot: 10},
		&P1b{Instance: 1, Ballot: 10, AcceptedBallot: 3, Value: []byte("cfg")},
		&P2a{Instance: 1, Ballot: 10, Value: []byte("cfg")},
		&P2b{Instance: 1, Ballot: 10},
		&Learn{Instance: 1, Value: []byte("cfg")},
		&ClockReq{Epoch: 4},
		&Prepare{Epoch: 4, TS: none, Cmd: noOrigin, Sent: 1},
		&SuspendOK{Epoch: 5, Cmds: []TimestampedCommand{{TS: ts, Cmd: cmd}},
			HasSnap: true, SnapTS: ts, Snap: []byte("snap")},
		&RetrieveReply{Seq: 4, Cmds: []TimestampedCommand{},
			HasSnap: true, SnapTS: none, Snap: []byte{}},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range sampleMessages() {
		roundTrip(t, m)
	}
}

func TestRoundTripEmptyPayloads(t *testing.T) {
	roundTrip(t, &Prepare{Cmd: types.Command{Payload: []byte{}}})
	roundTrip(t, &SuspendOK{Cmds: []TimestampedCommand{}})
	roundTrip(t, &P1b{Value: []byte{}})
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	if _, err := Decode([]byte{0xFF}); err == nil {
		t.Error("Decode(unknown type) succeeded")
	}
	// Truncated body.
	b := Encode(&Prepare{TS: types.Timestamp{Wall: 1}, Cmd: types.Command{Payload: []byte("xyz")}})
	for cut := 1; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", cut, len(b))
		}
	}
	// Trailing junk.
	if _, err := Decode(append(Encode(&Commit{Slot: 1}), 0x00)); err == nil {
		t.Error("Decode with trailing bytes succeeded")
	}
	// A snapshot flag byte other than 0 or 1 would decode to a message
	// that re-encodes differently.
	for _, m := range []Message{&SuspendOK{Epoch: 5}, &RetrieveReply{Seq: 3}} {
		b := Encode(m)
		b[len(b)-1] = 2
		if _, err := Decode(b); err == nil {
			t.Errorf("%v with snapshot flag byte 2 decoded without error", m.Type())
		}
	}
}

// wireGolden is the hex encoding of each message of sampleMessages()
// followed by sampleBatch(), generated once and never edited: a change
// here is a wire format change.
var wireGolden = []string{
	"01040000000000000015cd5b0700000000030000000600000000000000020000004d0000000000000007000000707574206b2076", // PREPARE
	"02040000000000000015cd5b070000000003000000b168de3a000000000600000000000000",                               // PREPAREOK
	"030400000000000000b3150000000000000700000000000000",                                                       // CLOCKTIME
	"04020000004d0000000000000007000000707574206b2076",                                                         // FORWARD
	"0509000000000000002a00000000000000020000004d0000000000000007000000707574206b20762900000000000000",         // ACCEPT
	"0609000000000000002a00000000000000",                                                                       // ACCEPTED
	"072a00000000000000",                                                                                       // COMMIT
	"081100000000000000020000004d0000000000000007000000707574206b20761600000000000000",                         // MACCEPT
	"0911000000000000001700000000000000",                                                                       // MACCEPTED
	"0a1100000000000000",                                                                                       // MCOMMIT
	"0b050000000000000015cd5b070000000003000000",                                                               // SUSPEND
	"0c05000000000000000100000015cd5b070000000003000000020000004d0000000000000007000000707574206b207600",       // SUSPENDOK
	"0d0000000000000000ffffffffde00000000000000010000000300000000000000",                                       // RETRIEVECMDS
	"0e03000000000000000200000015cd5b070000000003000000020000004d0000000000000007000000707574206b207615cd5b070000000003000000020000004d0000000000000007000000707574206b207600", // RETRIEVEREPLY
	"0f01000000000000000a00000000000000",                                                         // P1A
	"1001000000000000000a00000000000000030000000000000003000000636667",                           // P1B
	"1101000000000000000a0000000000000003000000636667",                                           // P2A
	"1201000000000000000a00000000000000",                                                         // P2B
	"13010000000000000003000000636667",                                                           // LEARN
	"150400000000000000",                                                                         // CLOCKREQ
	"0104000000000000000000000000000000ffffffff0100000000000000ffffffff010000000000000000000000", // PREPARE
	"0c05000000000000000100000015cd5b070000000003000000020000004d0000000000000007000000707574206b20760115cd5b07000000000300000004000000736e6170", // SUSPENDOK
	"0e040000000000000000000000010000000000000000ffffffff00000000",                                                                               // RETRIEVEREPLY
	"14040000002500000002030000000000000009030000000000000200000021030000000000000000000000000000250000000203000000000000000a03000000000000020000002203000000000000000000000000000034000000010300000000000000090300000000000002000000000000000000000002000000090000000000000007000000707574206b20761900000003030000000000000023030000000000000000000000000000", // BATCH
}

// TestWireGolden pins the encoding of every message type, so a layout
// change in any fields method fails here even when it still round-trips.
func TestWireGolden(t *testing.T) {
	msgs := append(sampleMessages(), sampleBatch())
	if len(msgs) != len(wireGolden) {
		t.Fatalf("%d sample messages, %d golden encodings", len(msgs), len(wireGolden))
	}
	seen := make(map[Type]bool)
	for i, m := range msgs {
		seen[m.Type()] = true
		if got := hex.EncodeToString(Encode(m)); got != wireGolden[i] {
			t.Errorf("%v (sample %d) encodes to\n %s\nwant\n %s", m.Type(), i, got, wireGolden[i])
		}
	}
	for ty := TPrepare; ty < maxType; ty++ {
		if !seen[ty] {
			t.Errorf("no golden encoding for %v", ty)
		}
	}
}

func TestNegativeReplicaIDRoundTrip(t *testing.T) {
	// NoReplica (-1) must survive the uint32 cast.
	m := &Prepare{
		TS:  types.Timestamp{Wall: 5, Node: types.NoReplica},
		Cmd: types.Command{ID: types.CommandID{Origin: types.NoReplica, Seq: 1}, Payload: []byte{}},
	}
	roundTrip(t, m)
}

func TestTypeString(t *testing.T) {
	if TPrepare.String() != "PREPARE" || TLearn.String() != "LEARN" {
		t.Error("type names wrong")
	}
	if Type(200).String() != "Type(200)" {
		t.Error("unknown type name wrong")
	}
}

func TestPayloadIsCopiedOnDecode(t *testing.T) {
	m := &Forward{Cmd: types.Command{Payload: []byte("abc")}}
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] = 'z' // mutating the wire buffer must not affect the message
	if string(got.(*Forward).Cmd.Payload) != "abc" {
		t.Error("decoded payload aliases wire buffer")
	}
}

// Property: Prepare round-trips for arbitrary field values.
func TestPrepareRoundTripProperty(t *testing.T) {
	f := func(epoch uint64, wall int64, node int32, origin int32, seq uint64, payload []byte) bool {
		if payload == nil {
			payload = []byte{}
		}
		m := &Prepare{
			Epoch: types.Epoch(epoch),
			TS:    types.Timestamp{Wall: wall, Node: types.ReplicaID(node)},
			Cmd: types.Command{
				ID:      types.CommandID{Origin: types.ReplicaID(origin), Seq: seq},
				Payload: payload,
			},
		}
		got, err := Decode(Encode(m))
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeArbitraryBytesNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SuspendOK with arbitrary command lists round-trips.
func TestSuspendOKRoundTripProperty(t *testing.T) {
	f := func(epoch uint64, walls []int64, payload []byte) bool {
		if payload == nil {
			payload = []byte{}
		}
		cmds := make([]TimestampedCommand, 0, len(walls))
		for i, w := range walls {
			cmds = append(cmds, TimestampedCommand{
				TS:  types.Timestamp{Wall: w, Node: types.ReplicaID(i % 7)},
				Cmd: types.Command{ID: types.CommandID{Origin: types.ReplicaID(i % 7), Seq: uint64(i)}, Payload: payload},
			})
		}
		m := &SuspendOK{Epoch: types.Epoch(epoch), Cmds: cmds}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		g := got.(*SuspendOK)
		if g.Epoch != m.Epoch || len(g.Cmds) != len(m.Cmds) {
			return false
		}
		for i := range g.Cmds {
			if g.Cmds[i].TS != m.Cmds[i].TS || g.Cmds[i].Cmd.ID != m.Cmds[i].Cmd.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
