package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"clockrsm/internal/types"
)

// Schedules are plain JSON — json.Marshal of a Schedule, with kinds as
// their numeric values and times in nanoseconds — so a failing chaos
// run ships its exact fault plan as an artifact, and an operator can
// write one by hand.

// ErrBadSchedule reports a schedule file that does not parse or names
// a fault outside the taxonomy.
var ErrBadSchedule = errors.New("chaos: malformed schedule")

// DecodeSchedule parses a JSON schedule. It rejects unknown fields,
// trailing data, unknown fault kinds, negative replica IDs and negative
// times or durations.
func DecodeSchedule(b []byte) (Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("%w: %v", ErrBadSchedule, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Schedule{}, fmt.Errorf("%w: trailing data", ErrBadSchedule)
	}
	bad := func(what string, i int) (Schedule, error) {
		return Schedule{}, fmt.Errorf("%w: %s fault %d out of range", ErrBadSchedule, what, i)
	}
	for i, f := range s.Clock {
		if f.Kind < ClockJump || f.Kind > ClockDrift || !valid(f.Replica, f.At, f.Duration, f.Magnitude) {
			return bad("clock", i)
		}
	}
	for i, f := range s.Links {
		if f.Kind < LinkDrop || f.Kind > LinkDelay || !valid(f.From, f.At, f.Duration, f.Delay) || f.To < 0 {
			return bad("link", i)
		}
	}
	for i, f := range s.Disk {
		if f.Kind < DiskSlowAppend || f.Kind > DiskSyncError || !valid(f.Replica, f.At, f.Duration, f.Stall) {
			return bad("disk", i)
		}
	}
	return s, nil
}

// valid reports whether a fault's replica ID and times are non-negative.
func valid(r types.ReplicaID, ds ...time.Duration) bool {
	for _, d := range ds {
		if d < 0 {
			return false
		}
	}
	return r >= 0
}
