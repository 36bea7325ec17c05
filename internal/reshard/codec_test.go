package reshard

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleTable() *Table {
	t := Legacy(3)
	t.Version = 42
	t.Slots[0] = Claim{Gen: 7, Phase: Migrating, Owner: 0, To: 5}
	t.Slots[17] = Claim{Gen: 3, Phase: Owned, Owner: 4}
	return t
}

// ctl prefixes a JSON body with a control op byte.
func ctl(op byte, body string) []byte { return append([]byte{op}, body...) }

func TestTableCodecRoundTrip(t *testing.T) {
	want := sampleTable()
	got, err := DecodeTable(EncodeTable(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || !reflect.DeepEqual(got.Slots, want.Slots) {
		t.Fatal("table did not round-trip")
	}
}

func TestTableCodecRejectsGarbage(t *testing.T) {
	const ok = `{"Version":1,"Slots":[{"Gen":0,"Phase":1,"Owner":0,"To":1}]}`
	if _, err := DecodeTable([]byte(ok)); err != nil {
		t.Fatalf("well-formed base case rejected: %v", err)
	}
	enc := EncodeTable(sampleTable())
	cases := map[string]string{
		"empty":          ``,
		"null":           `null`,
		"truncated":      string(enc[:len(enc)-1]),
		"trailing":       ok + `{}`,
		"unknown field":  `{"Version":1,"Slots":[{"Phase":0}],"Extra":1}`,
		"unknown claim":  `{"Version":1,"Slots":[{"Phase":0,"Extra":1}]}`,
		"bad phase":      `{"Version":1,"Slots":[{"Phase":2}]}`,
		"negative owner": `{"Version":1,"Slots":[{"Owner":-1}]}`,
		"negative to":    `{"Version":1,"Slots":[{"Phase":1,"To":-1}]}`,
		"zero slots":     `{"Version":1,"Slots":[]}`,
		"no slots":       `{"Version":1}`,
		"binary":         "\x01\x00\x00\x00",
	}
	for name, buf := range cases {
		if _, err := DecodeTable([]byte(buf)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "routes")
	// Missing file: (nil, nil), the caller synthesizes the legacy table.
	if tbl, err := Load(path); tbl != nil || err != nil {
		t.Fatalf("Load(missing) = %v, %v; want nil, nil", tbl, err)
	}
	want := sampleTable()
	if err := Save(want, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || !reflect.DeepEqual(got.Slots, want.Slots) {
		t.Fatal("table did not survive Save/Load")
	}
}

func TestFenceCodecRoundTrip(t *testing.T) {
	want := Fence{Gen: 9, From: 1, To: 4, Slots: []uint32{3, 5, 250}}
	enc := EncodeFence(want)
	if !IsControl(enc) {
		t.Fatal("fence payload not recognized as control")
	}
	got, err := DecodeFence(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fence round-trip: got %+v, want %+v", got, want)
	}
	cases := map[string][]byte{
		"empty":          {},
		"op only":        {OpFence},
		"truncated":      enc[:len(enc)-1],
		"trailing":       append(append([]byte(nil), enc...), '1'),
		"wrong op":       ctl(OpInstall, `{"Gen":1,"From":0,"To":1,"Slots":[1]}`),
		"unknown field":  ctl(OpFence, `{"Gen":1,"From":0,"To":1,"Slots":[1],"Final":true}`),
		"negative from":  ctl(OpFence, `{"Gen":1,"From":-1,"To":1,"Slots":[1]}`),
		"negative to":    ctl(OpFence, `{"Gen":1,"From":0,"To":-1,"Slots":[1]}`),
		"negative slot":  ctl(OpFence, `{"Gen":1,"From":0,"To":1,"Slots":[-1]}`),
		"zero slots":     ctl(OpFence, `{"Gen":1,"From":0,"To":1,"Slots":[]}`),
		"missing slots":  ctl(OpFence, `{"Gen":1,"From":0,"To":1}`),
		"not an object":  ctl(OpFence, `[1]`),
		"group overflow": ctl(OpFence, `{"Gen":1,"From":0,"To":4294967296,"Slots":[1]}`),
	}
	for name, buf := range cases {
		if _, err := DecodeFence(buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestInstallCodecRoundTrip(t *testing.T) {
	want := Install{
		Gen: 2, From: 0, To: 3, Final: true,
		Slots: []uint32{10, 12},
		Pairs: []Pair{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("empty"), Value: []byte{}},
			{Key: []byte{0xff, 0xfe}, Value: bytes.Repeat([]byte{0xee}, 300)},
		},
	}
	enc := EncodeInstall(want)
	if !IsControl(enc) {
		t.Fatal("install payload not recognized as control")
	}
	got, err := DecodeInstall(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Keys and values are base64 in JSON, so non-UTF-8 keys and the
	// nil/empty distinction both survive.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("install round-trip: got %+v, want %+v", got, want)
	}
	cases := map[string][]byte{
		"empty":          {},
		"op only":        {OpInstall},
		"truncated":      enc[:len(enc)-1],
		"trailing":       append(append([]byte(nil), enc...), ' ', '{', '}'),
		"wrong op":       ctl(OpFence, `{"Gen":1,"From":0,"To":1,"Final":true,"Slots":[1]}`),
		"unknown field":  ctl(OpInstall, `{"Gen":1,"From":0,"To":1,"Slots":[1],"Extra":0}`),
		"unknown pair":   ctl(OpInstall, `{"Gen":1,"From":0,"To":1,"Slots":[1],"Pairs":[{"Key":"aw==","Val":""}]}`),
		"negative from":  ctl(OpInstall, `{"Gen":1,"From":-1,"To":1,"Slots":[1]}`),
		"negative to":    ctl(OpInstall, `{"Gen":1,"From":0,"To":-2,"Slots":[1]}`),
		"zero slots":     ctl(OpInstall, `{"Gen":1,"From":0,"To":1,"Slots":[]}`),
		"bad base64 key": ctl(OpInstall, `{"Gen":1,"From":0,"To":1,"Slots":[1],"Pairs":[{"Key":"!"}]}`),
		"final not bool": ctl(OpInstall, `{"Gen":1,"From":0,"To":1,"Final":2,"Slots":[1]}`),
	}
	for name, buf := range cases {
		if _, err := DecodeInstall(buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// No pairs (a pure flip chunk) is legal.
	flip := Install{Gen: 1, From: 0, To: 1, Final: true, Slots: []uint32{0}}
	if got, err := DecodeInstall(EncodeInstall(flip)); err != nil || len(got.Pairs) != 0 {
		t.Fatalf("pair-less install: %+v, %v", got, err)
	}
}

// FuzzTableCodec feeds arbitrary bytes to DecodeTable: it must never
// panic, and anything it accepts must re-encode to a blob that decodes
// to the same table (the persist/wire format is self-consistent).
func FuzzTableCodec(f *testing.F) {
	f.Add(EncodeTable(Legacy(1)))
	f.Add(EncodeTable(Legacy(4)))
	f.Add(EncodeTable(sampleTable()))
	f.Add([]byte(`{"Version":1,"Slots":[{"Phase":1,"To":2}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := DecodeTable(data)
		if err != nil {
			return
		}
		re, err := DecodeTable(EncodeTable(tbl))
		if err != nil {
			t.Fatalf("re-decode of accepted table failed: %v", err)
		}
		if re.Version != tbl.Version || !reflect.DeepEqual(re.Slots, tbl.Slots) {
			t.Fatal("accepted table did not round-trip")
		}
		// Accepted tables must be servable: every routing entry point
		// must stay in bounds.
		_ = tbl.Group("probe")
		_ = tbl.Groups()
		_ = tbl.Migrations()
	})
}

// FuzzControlCodec does the same for the fence and install decoders,
// which parse replicated log payloads.
func FuzzControlCodec(f *testing.F) {
	f.Add(EncodeFence(Fence{Gen: 1, From: 0, To: 1, Slots: []uint32{1}}))
	f.Add(EncodeInstall(Install{Gen: 1, From: 0, To: 1, Final: true, Slots: []uint32{1}, Pairs: []Pair{{Key: []byte("k"), Value: []byte("v")}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if fe, err := DecodeFence(data); err == nil {
			if got, err := DecodeFence(EncodeFence(fe)); err != nil || !reflect.DeepEqual(got, fe) {
				t.Fatal("accepted fence did not round-trip")
			}
		}
		if in, err := DecodeInstall(data); err == nil {
			if got, err := DecodeInstall(EncodeInstall(in)); err != nil || !reflect.DeepEqual(got, in) {
				t.Fatal("accepted install did not round-trip")
			}
		}
	})
}
