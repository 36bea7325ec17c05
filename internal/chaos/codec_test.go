package chaos

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

func sampleSchedule() Schedule {
	return Schedule{
		Seed: 42,
		Clock: []ClockFault{
			{Replica: 1, Kind: ClockJump, At: 100 * time.Millisecond, Duration: 200 * time.Millisecond, Magnitude: 50 * time.Millisecond},
			{Replica: 2, Kind: ClockDrift, At: time.Second, Drift: -0.25},
		},
		Links: []LinkFault{
			{From: 0, To: 2, Kind: LinkDrop, At: 10 * time.Millisecond, Duration: 800 * time.Millisecond},
			{From: 2, To: 0, Kind: LinkDelay, At: 0, Duration: time.Second, Delay: 5 * time.Millisecond},
		},
		Disk: []DiskFault{
			{Replica: 0, Kind: DiskFsyncStall, At: 50 * time.Millisecond, Duration: 400 * time.Millisecond, Stall: 2 * time.Millisecond},
		},
	}
}

func TestScheduleCodecRoundTrip(t *testing.T) {
	want := sampleSchedule()
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestScheduleCodecRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"empty":             ``,
		"bad json":          `{"Links": [`,
		"unknown field":     `{"Links": [{"From": 0, "To": 1, "Kind": 1, "Durration": 5}]}`,
		"unknown kind":      `{"Clock": [{"Replica": 1, "Kind": 9}]}`,
		"negative duration": `{"Disk": [{"Replica": 0, "Kind": 2, "Duration": -1}]}`,
		"negative replica":  `{"Links": [{"From": 0, "To": -3, "Kind": 2}]}`,
		"trailing data":     `{"Seed": 1} {}`,
	}
	for name, b := range cases {
		if _, err := DecodeSchedule([]byte(b)); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("%s: err = %v, want ErrBadSchedule", name, err)
		}
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	p := Profile{Replicas: 3, ClockFaults: 3, LinkFaults: 3, DiskFaults: 2}
	a, b := Random(7, p), Random(7, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, Random(8, p)) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Random schedules round-trip through JSON, so a failing seeded run
	// can always ship its schedule as an artifact.
	b2, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchedule(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatal("random schedule did not round-trip")
	}
}
