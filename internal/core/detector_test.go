package core

import (
	"slices"
	"testing"
	"time"

	"clockrsm/internal/chaos"
	"clockrsm/internal/clock"
	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/sim"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// These tests run the replica's own failure detector (detectTick,
// Section II-A) against chaos-injected faults on its clock. The
// detector's contract is eventual completeness and accuracy, not
// instant correctness, so the questions are which property each fault
// erodes: silence the detector cannot see, suspicion that comes late,
// and suspicion of a replica that is alive. The last two check when the
// detector fires: one SuspectTimeout after a peer's last message.

const detectTimeout = 100 * time.Millisecond

// clockEnv is recordEnv read through a clock the test sets, instead of
// recordEnv's self-advancing counter. Its timers never fire; armed is
// the delay of the last one requested.
type clockEnv struct {
	*recordEnv
	clk   clock.Clock
	armed time.Duration
}

func (e *clockEnv) Clock() int64                     { return e.clk.Now() }
func (e *clockEnv) After(d time.Duration, fn func()) { e.armed = d }

// newDetectReplica starts replica 0 of three with the detector on, its
// clock reading src through eng's clock faults for replica 0. The
// detector's timer does not fire by itself: each call to detectTick is
// one timer firing, and clockEnv.armed is the delay it re-armed with.
func newDetectReplica(src clock.Clock, eng *chaos.Engine) *Replica {
	env := &clockEnv{recordEnv: newRecordEnv(0, 3), clk: eng.Clock(0, src)}
	r := New(env, &rsm.App{SM: rsm.NopSM{}}, Options{SuspectTimeout: detectTimeout})
	r.Start()
	return r
}

// heard delivers a liveness message from peer, as its CLOCKTIME
// broadcast would every Δ.
func heard(r *Replica, peer types.ReplicaID) {
	r.Deliver(peer, &msg.ClockTime{TS: 1})
}

// tick runs one detector period and returns the configuration the
// replica proposed, nil while it suspects nobody.
func tick(r *Replica) []types.ReplicaID {
	r.detectTick()
	if r.rc == nil {
		return nil
	}
	return r.rc.cfg
}

// A frozen clock makes silence invisible: elapsed time never grows, so
// a silent replica is never suspected. This is a liveness loss, not a
// safety one — the detector stays accurate, just incomplete.
func TestDetectorClockFreezeMasksSilence(t *testing.T) {
	src := clock.NewManual(int64(time.Hour))
	eng := chaos.New(chaos.Schedule{Clock: []chaos.ClockFault{
		{Replica: 0, Kind: chaos.ClockFreeze, At: 0}, // forever
	}})
	eng.Arm()
	r := newDetectReplica(src, eng)
	src.Advance(int64(10 * detectTimeout)) // r2 silent for ten timeouts
	heard(r, 1)
	if cfg := tick(r); cfg != nil {
		t.Fatalf("frozen-clock detector proposed %v; silence should be invisible", cfg)
	}
	if got := eng.Counts()["clock.freeze"]; got != 1 {
		t.Fatalf("clock.freeze activations = %d, want 1", got)
	}
}

// When the freeze thaws, the backlog of silence becomes visible at
// once. While frozen no deadline draws nearer, so the timer sits at its
// SuspectTimeout cap; its first firing after the thaw proposes removing
// the silent replica and keeps the one still talking.
func TestDetectorClockFreezeThawCycle(t *testing.T) {
	src := clock.NewManual(int64(time.Hour))
	eng := chaos.New(chaos.Schedule{Clock: []chaos.ClockFault{
		{Replica: 0, Kind: chaos.ClockFreeze, At: 0, Duration: 50 * time.Millisecond},
	}})
	eng.Arm()
	r := newDetectReplica(src, eng)
	pinned := r.env.Clock()
	src.Advance(int64(5 * detectTimeout))
	heard(r, 1)
	if cfg := tick(r); cfg != nil {
		t.Fatalf("proposed %v while frozen", cfg)
	}
	// The freeze window ends in real time.
	deadline := time.Now().Add(5 * time.Second)
	for r.env.Clock() == pinned {
		if time.Now().After(deadline) {
			t.Fatal("clock never thawed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	heard(r, 1) // r1 keeps talking; r2 stays silent
	if cfg := tick(r); !slices.Equal(cfg, []types.ReplicaID{0, 1}) {
		t.Fatalf("first period after thaw proposed %v, want [r0 r1]", cfg)
	}
}

// A rollback shifts every reading back by the same amount, so messages
// heard before the fault look fresher than they are: detection of real
// silence is delayed by exactly the rollback magnitude, then proceeds
// normally.
func TestDetectorClockRollbackDelaysSuspicion(t *testing.T) {
	src := clock.NewManual(int64(time.Hour))
	eng := chaos.New(chaos.Schedule{Clock: []chaos.ClockFault{
		{Replica: 0, Kind: chaos.ClockRollback, At: 0, Magnitude: 40 * time.Millisecond},
	}})
	r := newDetectReplica(src, eng) // peers last heard at the raw, pre-fault reading
	eng.Arm()
	src.Advance(int64(120 * time.Millisecond)) // past the timeout in raw time
	heard(r, 1)
	if cfg := tick(r); cfg != nil {
		t.Fatalf("proposed %v only 80ms of rolled-back silence in", cfg)
	}
	src.Advance(int64(30 * time.Millisecond)) // 150ms raw - 40ms rollback > 100ms
	heard(r, 1)
	if cfg := tick(r); !slices.Equal(cfg, []types.ReplicaID{0, 1}) {
		t.Fatalf("proposed %v once the rollback is outrun, want [r0 r1]", cfg)
	}
}

// A forward jump larger than the timeout makes everything heard before
// it look ancient at once: a live replica whose last message landed
// just before the jump is suspected, and the replica proposes removing
// it. The system model permits this (the detector may be wrong); the
// removed replica comes back through Rejoin. Documented, not fixed.
func TestDetectorClockJumpFalseSuspicion(t *testing.T) {
	src := clock.NewManual(int64(time.Hour))
	eng := chaos.New(chaos.Schedule{Clock: []chaos.ClockFault{
		{Replica: 0, Kind: chaos.ClockJump, At: 0, Magnitude: 150 * time.Millisecond},
	}})
	r := newDetectReplica(src, eng)
	src.Advance(int64(10 * time.Millisecond))
	heard(r, 2) // r2 is alive: its last message lands just before the jump
	eng.Arm()   // +150ms
	heard(r, 1) // r1's lands just after
	if cfg := tick(r); !slices.Equal(cfg, []types.ReplicaID{0, 1}) {
		t.Fatalf("after the jump the detector proposed %v, want the false positive [r0 r1]", cfg)
	}
}

// The detector re-arms at the earliest peer deadline, one timeout after
// the oldest last message, plus 1ms of slack. A last message stamped
// ahead of the clock (here by a rollback) caps the wait at one timeout.
func TestDetectorArmsAtEarliestDeadline(t *testing.T) {
	src := clock.NewManual(int64(time.Hour))
	eng := chaos.New(chaos.Schedule{Clock: []chaos.ClockFault{
		{Replica: 0, Kind: chaos.ClockRollback, At: 0, Magnitude: 50 * time.Millisecond},
	}})
	r := newDetectReplica(src, eng)
	env := r.env.(*clockEnv)
	heard(r, 1) // t0
	src.Advance(int64(30 * time.Millisecond))
	heard(r, 2) // t0+30ms
	src.Advance(int64(10 * time.Millisecond))
	if cfg := tick(r); cfg != nil {
		t.Fatalf("proposed %v with every peer inside its timeout", cfg)
	}
	if want := detectTimeout - 40*time.Millisecond + time.Millisecond; env.armed != want {
		t.Fatalf("re-armed after %v, want T-40ms+1ms = %v", env.armed, want)
	}
	eng.Arm() // the clock reads t0-10ms: both last messages are ahead of it
	if cfg := tick(r); cfg != nil {
		t.Fatalf("proposed %v after a rollback", cfg)
	}
	if env.armed != detectTimeout {
		t.Fatalf("re-armed after %v with lastHeard ahead of the clock, want the cap %v", env.armed, detectTimeout)
	}
}

// On virtual time, a replica that crashes just after a sampling instant
// of a fixed-period detector is still suspected one SuspectTimeout after
// its last message, not up to two: a survivor suspends for the
// reconfiguration within T + 10ms (one link delay of slack) of the crash.
func TestDetectionWithinTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	h := newHarness(t, wan.Uniform(3, ms(10)),
		Options{ClockTimeInterval: ms(5), SuspectTimeout: timeout}, sim.ClusterOptions{})
	crash := 2*timeout + ms(7)
	h.c.Eng.At(crash, func() { h.c.Crash(2) })
	h.c.Eng.RunUntil(crash)
	for !h.reps[0].suspended && !h.reps[1].suspended {
		if took := h.c.Eng.Now() - crash; took > timeout+ms(10) {
			t.Fatalf("no survivor suspended %v after the crash, want <= T+10ms = %v", took, timeout+ms(10))
		}
		h.c.Eng.RunUntil(h.c.Eng.Now() + ms(1))
	}
	t.Logf("suspended %v after the crash", h.c.Eng.Now()-crash)
}

// The transport's report that a peer's process exited expires that
// peer's deadline and runs the detector's scan at once: the removal is
// proposed now, not one timeout later, and no second timer chain is
// armed beside detectTick's.
func TestPeerDownSuspectsAtOnce(t *testing.T) {
	r := newDetectReplica(clock.NewManual(int64(time.Hour)), chaos.New(chaos.Schedule{}))
	env := r.env.(*clockEnv)
	env.armed = -1
	r.PeerDown(2)
	if r.rc == nil || !slices.Equal(r.rc.cfg, []types.ReplicaID{0, 1}) {
		t.Fatalf("PeerDown(r2) proposed %v, want [r0 r1] at once", r.DebugReconfig())
	}
	if env.armed != -1 {
		t.Fatalf("PeerDown armed a timer (%v); detectTick is the one chain", env.armed)
	}
}

// PeerDown changes nothing when the detector is off, for self, for a
// replica outside the configuration, or while suspended for a
// reconfiguration already under way.
func TestPeerDownNoOps(t *testing.T) {
	cases := []struct {
		name  string
		setup func(r *Replica) types.ReplicaID // returns the peer reported down
	}{
		{"detector off", func(r *Replica) types.ReplicaID { r.opts.SuspectTimeout = 0; return 2 }},
		{"self", func(r *Replica) types.ReplicaID { return 0 }},
		{"outside Spec", func(r *Replica) types.ReplicaID { return 7 }},
		{"removed from the configuration", func(r *Replica) types.ReplicaID {
			r.config = []types.ReplicaID{0, 1}
			delete(r.inConfig, 2)
			return 2
		}},
		{"suspended", func(r *Replica) types.ReplicaID { r.suspended = true; return 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newDetectReplica(clock.NewManual(int64(time.Hour)), chaos.New(chaos.Schedule{}))
			env := r.env.(*clockEnv)
			k := tc.setup(r)
			heard := slices.Clone(r.lastHeard)
			env.armed = -1
			r.PeerDown(k)
			if r.rc != nil {
				t.Fatalf("PeerDown(r%d) proposed: %s", k, r.DebugReconfig())
			}
			if !slices.Equal(r.lastHeard, heard) || env.armed != -1 {
				t.Fatalf("PeerDown(r%d) touched the detector: lastHeard %v -> %v, armed %v", k, heard, r.lastHeard, env.armed)
			}
		})
	}
}
