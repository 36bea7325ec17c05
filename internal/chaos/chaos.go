// Package chaos is the deterministic fault-injection layer (ROADMAP
// open item 3). Clock-RSM's correctness never depends on clock
// synchrony — only its latency does — and nothing in the tree proved
// that under misbehaving clocks, asymmetric partitions, or stalling
// disks until this package: it wraps the three substrates the runtime
// already abstracts behind interfaces, so faults inject at exactly the
// seams a real deployment fails at, with zero changes to protocol code:
//
//   - clocks (internal/clock): per-replica jump / freeze / rollback /
//     drift windows, the anomaly taxonomy of GentleRain+ (PAPERS.md),
//     applied to the raw clock source underneath the deployment's
//     clock.Monotonic guard — exactly where an NTP step or a VM
//     migration hits a real machine;
//   - transports (internal/transport, in-process and TCP alike):
//     asymmetric one-way drops, flapping links, and per-link delay
//     spikes layered on top of the wan.Matrix base topology, with
//     per-link FIFO order preserved (the protocol's channel
//     assumption, see Replica.observe);
//   - stable logs (internal/storage): slow appends, fsync stalls, and
//     transient write errors around any storage.Log.
//
// Every fault is driven by a Schedule — a declarative, seeded list of
// fault windows that is plain JSON on disk (DecodeSchedule) — so a
// failing chaos run is replayed from its schedule (or its seed; see
// Random).
// All injectors export counters (Engine.Counts) that the runtime
// surfaces through node.HostStatus and the kvserver STATUS command, so
// an operator — or an assertion — can see exactly which faults fired.
//
// runner.RunChaosMatrix sweeps fault combinations from this package
// against a live multi-group cluster under closed-loop load and checks
// per-key linearizability, zero lost acks, zero duplicate executions,
// and bounded recovery after each fault window clears.
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"clockrsm/internal/types"
)

// ClockFaultKind enumerates the clock anomaly taxonomy.
type ClockFaultKind uint8

// Clock fault kinds.
const (
	// ClockJump steps the clock forward by Magnitude for the window
	// (reverting at the window's end; Duration 0 makes the step
	// permanent) — an NTP step or a VM resume landing in the future.
	ClockJump ClockFaultKind = iota + 1
	// ClockFreeze pins the reading at its value on entry to the window;
	// on exit the clock snaps forward to real time. Under the
	// deployment's Monotonic wrapper a frozen source reads as a clock
	// advancing one nanosecond per call.
	ClockFreeze
	// ClockRollback steps the clock backward by Magnitude (window
	// semantics as ClockJump) — the raw effect of an NTP step into the
	// past, which Monotonic flattens into a stuck clock.
	ClockRollback
	// ClockDrift runs the clock fast (Drift > 0) or slow (Drift < 0) by
	// the given fraction for the window; the accumulated offset persists
	// after the window, as real oscillator error does.
	ClockDrift
)

// String names the kind.
func (k ClockFaultKind) String() string {
	switch k {
	case ClockJump:
		return "jump"
	case ClockFreeze:
		return "freeze"
	case ClockRollback:
		return "rollback"
	case ClockDrift:
		return "drift"
	default:
		return fmt.Sprintf("ClockFaultKind(%d)", uint8(k))
	}
}

// ClockFault is one clock anomaly window at one replica. At is the
// offset from Engine.Arm; Duration 0 means "until the end of the run"
// (a permanent step for ClockJump/ClockRollback).
type ClockFault struct {
	Replica   types.ReplicaID
	Kind      ClockFaultKind
	At        time.Duration
	Duration  time.Duration
	Magnitude time.Duration // ClockJump / ClockRollback step size
	Drift     float64       // ClockDrift rate, e.g. 0.2 = 20% fast
}

// LinkFaultKind enumerates the network fault taxonomy.
type LinkFaultKind uint8

// Link fault kinds.
const (
	// LinkDrop discards every message on the link for the window — one
	// direction only, so asymmetric partitions are the natural case and
	// a symmetric one is simply two entries.
	LinkDrop LinkFaultKind = iota + 1
	// LinkDelay adds Delay to every message on the link for the window,
	// preserving per-link FIFO order (a delayed message is never
	// overtaken by a later one on the same link).
	LinkDelay
)

// String names the kind.
func (k LinkFaultKind) String() string {
	switch k {
	case LinkDrop:
		return "drop"
	case LinkDelay:
		return "delay"
	default:
		return fmt.Sprintf("LinkFaultKind(%d)", uint8(k))
	}
}

// LinkFault is one fault window on the directed link From→To.
type LinkFault struct {
	From, To types.ReplicaID
	Kind     LinkFaultKind
	At       time.Duration
	Duration time.Duration // 0 = until the end of the run
	Delay    time.Duration // LinkDelay: extra one-way latency
}

// DiskFaultKind enumerates the storage fault taxonomy.
type DiskFaultKind uint8

// Disk fault kinds.
const (
	// DiskSlowAppend stalls every log append by Stall for the window —
	// a congested device queue.
	DiskSlowAppend DiskFaultKind = iota + 1
	// DiskFsyncStall stalls every Sync by Stall for the window — the
	// classic fsync outlier that group commit amortizes but cannot hide.
	DiskFsyncStall
	// DiskCheckpointError fails WriteCheckpoint with ErrInjected for the
	// window. The protocol treats checkpointing as best-effort (it keeps
	// the uncompacted log), so this is the one write-error injection that
	// is safe under live load; see DiskAppendError.
	DiskCheckpointError
	// DiskAppendError fails Append with ErrInjected for the window.
	// CAUTION: the replication layer treats an append as infallible once
	// issued (the entry is also mirrored in memory), so injecting this
	// under live protocol load makes the disk silently diverge from the
	// replica's in-memory state — by design this models a corrupting
	// disk, and belongs in targeted recovery tests, not the live matrix.
	DiskAppendError
	// DiskSyncError fails Sync with ErrInjected for the window. The
	// durability contract makes an fsync failure fatal (core.syncBarrier
	// panics — ack-bearing sends must never follow a failed barrier), so
	// this too is for targeted tests that assert the crash contract.
	DiskSyncError
)

// String names the kind.
func (k DiskFaultKind) String() string {
	switch k {
	case DiskSlowAppend:
		return "slow_append"
	case DiskFsyncStall:
		return "fsync_stall"
	case DiskCheckpointError:
		return "checkpoint_error"
	case DiskAppendError:
		return "append_error"
	case DiskSyncError:
		return "sync_error"
	default:
		return fmt.Sprintf("DiskFaultKind(%d)", uint8(k))
	}
}

// DiskFault is one storage fault window at one replica (covering every
// group's log on that replica).
type DiskFault struct {
	Replica  types.ReplicaID
	Kind     DiskFaultKind
	At       time.Duration
	Duration time.Duration // 0 = until the end of the run
	Stall    time.Duration // DiskSlowAppend / DiskFsyncStall stall per op
}

// Schedule is a complete, declarative fault plan: every anomaly the run
// will inject, with deterministic timing relative to Engine.Arm. It
// round-trips through json.Marshal and DecodeSchedule, so a failing run
// is reproduced from its schedule alone.
type Schedule struct {
	// Seed records the generator seed the schedule was derived from
	// (informational for hand-built schedules).
	Seed  int64
	Clock []ClockFault
	Links []LinkFault
	Disk  []DiskFault
}

// End returns the instant (relative to Arm) at which the last bounded
// fault window clears. Unbounded windows (Duration 0 on kinds where
// that means "forever") are ignored: they never clear.
func (s Schedule) End() time.Duration {
	var end time.Duration
	upd := func(at, dur time.Duration) {
		if dur > 0 && at+dur > end {
			end = at + dur
		}
	}
	for _, f := range s.Clock {
		upd(f.At, f.Duration)
	}
	for _, f := range s.Links {
		upd(f.At, f.Duration)
	}
	for _, f := range s.Disk {
		upd(f.At, f.Duration)
	}
	return end
}

// Engine owns one run's fault timeline. Build the injectors from it
// (Clock, Transport, Log) while wiring the cluster, then Arm once the
// cluster is live: every fault window's At is measured from the Arm
// instant, and before Arm all injectors are transparent pass-throughs.
// Safe for concurrent use.
type Engine struct {
	sched Schedule

	mu      sync.Mutex
	start   time.Time
	armed   bool
	sources []counterSource
}

// counterSource is one injector's contribution to the engine's counter
// aggregation, tagged with the replica it instruments.
type counterSource struct {
	replica types.ReplicaID
	counts  func(into map[string]uint64)
}

// New creates an engine for the given schedule. Fault lists are copied
// and sorted by activation time.
func New(sched Schedule) *Engine {
	sched.Clock = append([]ClockFault(nil), sched.Clock...)
	sched.Links = append([]LinkFault(nil), sched.Links...)
	sched.Disk = append([]DiskFault(nil), sched.Disk...)
	sort.SliceStable(sched.Clock, func(i, j int) bool { return sched.Clock[i].At < sched.Clock[j].At })
	sort.SliceStable(sched.Links, func(i, j int) bool { return sched.Links[i].At < sched.Links[j].At })
	sort.SliceStable(sched.Disk, func(i, j int) bool { return sched.Disk[i].At < sched.Disk[j].At })
	return &Engine{sched: sched}
}

// Schedule returns a copy of the engine's fault plan.
func (e *Engine) Schedule() Schedule {
	return Schedule{
		Seed:  e.sched.Seed,
		Clock: append([]ClockFault(nil), e.sched.Clock...),
		Links: append([]LinkFault(nil), e.sched.Links...),
		Disk:  append([]DiskFault(nil), e.sched.Disk...),
	}
}

// Arm starts the fault timeline: every window's At is measured from
// this instant. Idempotent; injectors built before or after Arm behave
// identically.
func (e *Engine) Arm() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.armed {
		e.armed = true
		e.start = time.Now()
	}
}

// elapsed returns the time since Arm, and whether the engine is armed
// at all (faults are inert before Arm).
func (e *Engine) elapsed() (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.armed {
		return 0, false
	}
	return time.Since(e.start), true
}

// register adds one injector's counters to the aggregation.
func (e *Engine) register(r types.ReplicaID, counts func(into map[string]uint64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sources = append(e.sources, counterSource{replica: r, counts: counts})
}

// Counts aggregates every injector's fault counters across all
// replicas, keyed "layer.kind" (e.g. "clock.freeze", "link.drop",
// "disk.fsync_stall"). Zero-valued categories are omitted.
func (e *Engine) Counts() map[string]uint64 {
	return e.counts(types.NoReplica)
}

// ReplicaCounts is Counts restricted to the injectors instrumenting
// replica r — what that replica's Host surfaces in its status.
func (e *Engine) ReplicaCounts(r types.ReplicaID) map[string]uint64 {
	return e.counts(r)
}

func (e *Engine) counts(only types.ReplicaID) map[string]uint64 {
	e.mu.Lock()
	srcs := append([]counterSource(nil), e.sources...)
	e.mu.Unlock()
	out := make(map[string]uint64)
	for _, s := range srcs {
		if only != types.NoReplica && s.replica != only {
			continue
		}
		s.counts(out)
	}
	return out
}
