package chaos

import (
	"math/rand"
	"time"

	"clockrsm/internal/types"
)

// Profile shapes Random's schedule generation.
type Profile struct {
	// Replicas is the cluster size faults are drawn over.
	Replicas int
	// Span is the window within which fault start times fall.
	Span time.Duration
	// ClockFaults, LinkFaults and DiskFaults are the number of fault
	// windows to draw per layer.
	ClockFaults, LinkFaults, DiskFaults int
	// MaxMagnitude bounds clock jump/rollback steps (default 50ms).
	MaxMagnitude time.Duration
	// MaxDelay bounds injected link delays (default 20ms).
	MaxDelay time.Duration
	// MaxStall bounds injected disk stalls (default 5ms).
	MaxStall time.Duration
	// MinDropWindow floors LinkDrop durations. Messages dropped by the
	// chaos layer are gone for good — the protocol has no retransmission
	// below reconfiguration — so a drop window must outlast the
	// SuspectTimeout after the last message gets through, for the
	// reconfiguration path to repair the gap. Default 500ms (the
	// scenario harness's 350ms SuspectTimeout with margin).
	MinDropWindow time.Duration
}

func (p Profile) withDefaults() Profile {
	if p.Replicas == 0 {
		p.Replicas = 3
	}
	if p.Span == 0 {
		p.Span = time.Second
	}
	if p.MaxMagnitude == 0 {
		p.MaxMagnitude = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 20 * time.Millisecond
	}
	if p.MaxStall == 0 {
		p.MaxStall = 5 * time.Millisecond
	}
	if p.MinDropWindow == 0 {
		p.MinDropWindow = 500 * time.Millisecond
	}
	return p
}

// Random draws a schedule deterministically from the seed: the same
// (seed, profile) pair always yields the same schedule, which is the
// replayability contract of the whole package. Only fault kinds that
// are safe under live protocol load are drawn (see the DiskFaultKind
// docs): stalls and checkpoint errors, never append/sync errors.
func Random(seed int64, p Profile) Schedule {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}

	at := func() time.Duration { return time.Duration(rng.Int63n(int64(p.Span))) }
	dur := func(min, max time.Duration) time.Duration {
		if max <= min {
			return min
		}
		return min + time.Duration(rng.Int63n(int64(max-min)))
	}
	replica := func() types.ReplicaID { return types.ReplicaID(rng.Intn(p.Replicas)) }

	for i := 0; i < p.ClockFaults; i++ {
		f := ClockFault{
			Replica:  replica(),
			Kind:     ClockFaultKind(rng.Intn(4)) + ClockJump,
			At:       at(),
			Duration: dur(50*time.Millisecond, 300*time.Millisecond),
		}
		switch f.Kind {
		case ClockJump, ClockRollback:
			f.Magnitude = dur(time.Millisecond, p.MaxMagnitude)
		case ClockDrift:
			f.Drift = rng.Float64()*0.4 - 0.2 // ±20%
		}
		s.Clock = append(s.Clock, f)
	}
	for i := 0; i < p.LinkFaults; i++ {
		from := replica()
		to := replica()
		for to == from {
			to = replica()
		}
		f := LinkFault{
			From: from, To: to,
			Kind: LinkFaultKind(rng.Intn(2)) + LinkDrop,
			At:   at(),
		}
		if f.Kind == LinkDrop {
			f.Duration = dur(p.MinDropWindow, p.MinDropWindow+300*time.Millisecond)
		} else {
			f.Duration = dur(50*time.Millisecond, 300*time.Millisecond)
			f.Delay = dur(time.Millisecond, p.MaxDelay)
		}
		s.Links = append(s.Links, f)
	}
	for i := 0; i < p.DiskFaults; i++ {
		f := DiskFault{
			Replica:  replica(),
			Kind:     DiskFaultKind(rng.Intn(3)) + DiskSlowAppend, // stalls + checkpoint errors only
			At:       at(),
			Duration: dur(50*time.Millisecond, 400*time.Millisecond),
		}
		if f.Kind == DiskSlowAppend || f.Kind == DiskFsyncStall {
			f.Stall = dur(100*time.Microsecond, p.MaxStall)
		}
		s.Disk = append(s.Disk, f)
	}
	return s
}
