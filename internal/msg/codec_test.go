package msg

import (
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
	return []Message{
		&Prepare{Epoch: 4, TS: ts, Cmd: cmd},
		&PrepareOK{Epoch: 4, TS: ts, ClockTS: 987654321},
		&ClockTime{Epoch: 4, TS: 5555},
		&Forward{Cmd: cmd},
		&Accept{Ballot: 9, Slot: 42, Cmd: cmd, CommitIndex: 41},
		&Accepted{Ballot: 9, Slot: 42},
		&Commit{Slot: 42},
		&MAccept{Slot: 17, Cmd: cmd, LowSlot: 22},
		&MAccepted{Slot: 17, LowSlot: 23},
		&MCommit{Slot: 17},
		&Suspend{Epoch: 5, CTS: ts},
		&SuspendOK{Epoch: 5, Cmds: []TimestampedCommand{{TS: ts, Cmd: cmd}}},
		&RetrieveCmds{From: ts, To: types.Timestamp{Wall: 222, Node: 1}, Seq: 3},
		&RetrieveReply{Seq: 3, Cmds: []TimestampedCommand{{TS: ts, Cmd: cmd}, {TS: ts, Cmd: cmd}}},
		&P1a{Instance: 1, Ballot: 10},
		&P1b{Instance: 1, Ballot: 10, AcceptedBallot: 3, Value: []byte("cfg")},
		&P2a{Instance: 1, Ballot: 10, Value: []byte("cfg")},
		&P2b{Instance: 1, Ballot: 10},
		&Learn{Instance: 1, Value: []byte("cfg")},
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
