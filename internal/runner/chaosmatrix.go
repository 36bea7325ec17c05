package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"clockrsm/internal/chaos"
	"clockrsm/internal/core"
	"clockrsm/internal/node"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// ChaosMatrixConfig describes a chaos-matrix run: a sweep of
// fault-injection scenarios (chaos.Schedule), each executed against a
// fresh multi-group cluster over the in-process hub (wire codec on, an
// asymmetric wan.Matrix as the base topology) and real file logs, under
// closed-loop client load, with per-key linearizability checked during
// the faults and full recovery asserted after they clear.
type ChaosMatrixConfig struct {
	// Dir is where replica WALs live (required; scenario s places
	// replica r group g at Dir/<s>/r<r>.g<g>.log).
	Dir string
	// Scenarios selects scenarios by name; empty runs every built-in
	// one (see DefaultScenarios).
	Scenarios []string
	// Debug, when set, receives progress lines (testing.T.Logf fits).
	Debug func(format string, args ...any)
}

// The matrix shares the crash churn's fault* protocol timings. Drop
// windows must outlast faultSuspect: a dropped PREPARE is a permanent
// history gap until a reconfiguration or rejoin triggered by suspicion
// repairs it, and suspicion comes one timeout after the last message.
const (
	chaosReplicas = 3
	chaosGroups   = 2
	// chaosClients is the closed-loop writer count: at least the group
	// count, so every group sees load.
	chaosClients = 3
	// chaosTail is how long load keeps running after the last fault
	// window clears, so recovery is exercised under traffic.
	chaosTail = 300 * time.Millisecond
	// chaosStep bounds one proposal or read attempt during load: longer
	// than any single fault-induced commit stall — faultSuspect plus a
	// reconfiguration — but short enough that a client parked at a
	// partitioned replica retries elsewhere promptly.
	chaosStep = 2 * time.Second
	// chaosRecovery is the stated recovery bound: after the last fault
	// window clears, every replica must be back in every group's
	// configuration and every store byte-converged within this long.
	chaosRecovery = 15 * time.Second
	// chaosCheckpointEvery is small enough that checkpoint-error windows
	// are hit.
	chaosCheckpointEvery = 8
)

// ChaosScenario is one named fault plan of the matrix.
type ChaosScenario struct {
	Name  string
	Sched chaos.Schedule
}

// DefaultScenarios builds the built-in fault matrix for a cluster of n
// replicas with the given failure-detector timeout. Every drop window
// outlasts suspect (see the chaos* constants for why); delay and clock
// windows are free to flap fast.
func DefaultScenarios(n int, suspect time.Duration) []ChaosScenario {
	if n < 3 {
		panic("chaos matrix needs at least 3 replicas")
	}
	drop := suspect + 150*time.Millisecond
	r := func(i int) types.ReplicaID { return types.ReplicaID(i % n) }
	at := 150 * time.Millisecond

	var isolate []chaos.LinkFault
	flap := func(victim types.ReplicaID, start, dur time.Duration) {
		for i := 0; i < n; i++ {
			o := types.ReplicaID(i)
			if o == victim {
				continue
			}
			isolate = append(isolate,
				chaos.LinkFault{From: victim, To: o, Kind: chaos.LinkDrop, At: start, Duration: dur},
				chaos.LinkFault{From: o, To: victim, Kind: chaos.LinkDrop, At: start, Duration: dur},
			)
		}
	}
	// Two full-isolation windows with a healthy gap between: the victim
	// is suspected and removed, rejoins when the window clears, and is
	// removed again — the down-up suspicion cycle, twice.
	flap(r(2), 100*time.Millisecond, drop)
	flap(r(2), 100*time.Millisecond+drop+500*time.Millisecond, drop)

	var delayFlap []chaos.LinkFault
	for i := 0; i < 5; i++ {
		delayFlap = append(delayFlap, chaos.LinkFault{
			From: r(0), To: r(2), Kind: chaos.LinkDelay,
			At:       time.Duration(i) * 80 * time.Millisecond,
			Duration: 40 * time.Millisecond,
			Delay:    10 * time.Millisecond,
		})
	}

	return []ChaosScenario{
		{Name: "clock-jump", Sched: chaos.Schedule{Clock: []chaos.ClockFault{
			{Replica: r(1), Kind: chaos.ClockJump, At: at, Duration: 300 * time.Millisecond, Magnitude: 50 * time.Millisecond},
		}}},
		{Name: "clock-rollback", Sched: chaos.Schedule{Clock: []chaos.ClockFault{
			{Replica: r(2), Kind: chaos.ClockRollback, At: at, Duration: 300 * time.Millisecond, Magnitude: 40 * time.Millisecond},
		}}},
		{Name: "clock-freeze", Sched: chaos.Schedule{Clock: []chaos.ClockFault{
			{Replica: r(1), Kind: chaos.ClockFreeze, At: at, Duration: 300 * time.Millisecond},
		}}},
		{Name: "clock-drift", Sched: chaos.Schedule{Clock: []chaos.ClockFault{
			{Replica: r(0), Kind: chaos.ClockDrift, At: at, Duration: 400 * time.Millisecond, Drift: 0.2},
			{Replica: r(2), Kind: chaos.ClockDrift, At: at, Duration: 400 * time.Millisecond, Drift: -0.15},
		}}},
		{Name: "partition-oneway", Sched: chaos.Schedule{Links: []chaos.LinkFault{
			{From: r(0), To: r(1), Kind: chaos.LinkDrop, At: at, Duration: drop},
		}}},
		{Name: "partition-flap", Sched: chaos.Schedule{Links: isolate}},
		{Name: "delay-flap", Sched: chaos.Schedule{Links: delayFlap}},
		{Name: "delay-spike", Sched: chaos.Schedule{Links: []chaos.LinkFault{
			{From: r(1), To: r(0), Kind: chaos.LinkDelay, At: at, Duration: 400 * time.Millisecond, Delay: 30 * time.Millisecond},
		}}},
		{Name: "slow-disk", Sched: chaos.Schedule{Disk: []chaos.DiskFault{
			{Replica: r(0), Kind: chaos.DiskFsyncStall, At: 100 * time.Millisecond, Duration: 500 * time.Millisecond, Stall: 3 * time.Millisecond},
			{Replica: r(0), Kind: chaos.DiskSlowAppend, At: 100 * time.Millisecond, Duration: 500 * time.Millisecond, Stall: 500 * time.Microsecond},
			{Replica: r(1), Kind: chaos.DiskCheckpointError, At: 100 * time.Millisecond, Duration: 600 * time.Millisecond},
		}}},
		{Name: "kitchen-sink", Sched: chaos.Schedule{
			Clock: []chaos.ClockFault{
				{Replica: r(0), Kind: chaos.ClockJump, At: at, Duration: 300 * time.Millisecond, Magnitude: 30 * time.Millisecond},
			},
			Links: []chaos.LinkFault{
				{From: r(1), To: r(2), Kind: chaos.LinkDrop, At: at, Duration: drop},
				{From: r(0), To: r(1), Kind: chaos.LinkDelay, At: at, Duration: 400 * time.Millisecond, Delay: 10 * time.Millisecond},
			},
			Disk: []chaos.DiskFault{
				{Replica: r(2), Kind: chaos.DiskFsyncStall, At: at, Duration: 400 * time.Millisecond, Stall: 2 * time.Millisecond},
			},
		}},
	}
}

// ChaosScenarioResult reports one scenario that passed every assertion.
type ChaosScenarioResult struct {
	Name string
	// Acked / Resubmitted / Reads as in CrashChurnResult.
	Acked, Resubmitted, Reads uint64
	// Recovery is how long after the last fault window cleared the
	// cluster took to reach full membership and byte-identical stores.
	Recovery time.Duration
	// Faults is the aggregated injection counter map — every fault
	// category the schedule contains is asserted non-zero here.
	Faults map[string]uint64
}

// ChaosMatrixResult aggregates a full matrix run.
type ChaosMatrixResult struct {
	Scenarios []ChaosScenarioResult
}

// RunChaosMatrix sweeps the fault scenarios against fresh clusters and
// verifies, per scenario:
//
//   - per-key linearizability under the faults: a linearizable read
//     that completes observes every write acked before it was issued
//     (reads parked behind a fault-stalled watermark time out and are
//     skipped, never served stale);
//   - zero lost acks: every acked write survives to the converged
//     store;
//   - zero duplicate executions: no (replica, group) executes the same
//     command twice;
//   - bounded recovery: within chaosRecovery of the last fault window
//     clearing, every replica is back in every group's configuration
//     and all stores are byte-identical;
//   - observability: every scheduled fault category reports a non-zero
//     injection counter (surfaced through node.HostStatus.Faults).
func RunChaosMatrix(cfg ChaosMatrixConfig) (*ChaosMatrixResult, error) {
	if cfg.Dir == "" {
		return nil, errors.New("runner: ChaosMatrixConfig.Dir is required")
	}
	scenarios := DefaultScenarios(chaosReplicas, faultSuspect)
	if len(cfg.Scenarios) > 0 {
		want := make(map[string]bool, len(cfg.Scenarios))
		for _, s := range cfg.Scenarios {
			want[s] = true
		}
		kept := scenarios[:0]
		for _, sc := range scenarios {
			if want[sc.Name] {
				kept = append(kept, sc)
				delete(want, sc.Name)
			}
		}
		if len(want) > 0 {
			return nil, fmt.Errorf("runner: unknown chaos scenarios %v", want)
		}
		scenarios = kept
	}
	res := &ChaosMatrixResult{}
	for _, sc := range scenarios {
		sr, err := runChaosScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		res.Scenarios = append(res.Scenarios, *sr)
	}
	return res, nil
}

func runChaosScenario(cfg ChaosMatrixConfig, sc ChaosScenario) (*ChaosScenarioResult, error) {
	debugf := func(format string, args ...any) {
		if cfg.Debug != nil {
			cfg.Debug("["+sc.Name+"] "+format, args...)
		}
	}
	eng := chaos.New(sc.Sched)
	scDir := filepath.Join(cfg.Dir, sc.Name)
	if err := os.MkdirAll(scDir, 0o755); err != nil {
		return nil, err
	}
	// Base topology: deliberately asymmetric (satellite of PR 5's
	// staleness work) — links into the last replica are slower than the
	// reverse direction, on top of a 1 ms uniform mesh.
	base := wan.Uniform(chaosReplicas, time.Millisecond)
	for i := 0; i < chaosReplicas-1; i++ {
		base.SetOneWay(types.ReplicaID(i), chaosReplicas-1, 2*time.Millisecond)
	}
	c, err := newCluster(clusterSpec{
		replicas: chaosReplicas, groups: chaosGroups,
		latency: base, log: logFile, dir: scDir, chaos: eng,
		core: core.Options{
			ClockTimeInterval: faultDelta,
			SuspectTimeout:    faultSuspect,
			ConsensusRetry:    faultConsensusRetry,
			CheckpointEvery:   chaosCheckpointEvery,
		},
		debugf: debugf,
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()
	w := c.startWriters(c.clientKeys(chaosClients), chaosStep)

	// Let the cluster commit a little healthy traffic, then start the
	// fault timeline and ride it out plus the tail.
	time.Sleep(100 * time.Millisecond)
	eng.Arm()
	armed := time.Now()
	faultSpan := sc.Sched.End()
	debugf("armed: %d clock / %d link / %d disk faults over %v", len(sc.Sched.Clock), len(sc.Sched.Links), len(sc.Sched.Disk), faultSpan)
	time.Sleep(faultSpan + chaosTail)
	if err := w.finish(); err != nil {
		return nil, err
	}

	// Recovery: full membership (the heal monitor is on, so converged
	// waits for it) and byte-identical stores within the stated bound of
	// the last fault window clearing.
	cleared := armed.Add(faultSpan)
	deadline := cleared.Add(chaosRecovery)
	if err := c.converged(time.Until(deadline)); err != nil {
		return nil, fmt.Errorf("no recovery within %v of faults clearing: %w", chaosRecovery, err)
	}
	recovery := time.Since(cleared)
	if recovery < 0 {
		recovery = 0
	}
	if err := w.survived(); err != nil {
		return nil, err
	}

	// Final linearizable read at every replica: with the faults cleared
	// and membership healed, no replica may stay read-stalled. The
	// detector stays armed, so it can still remove a live replica on a
	// scheduling hiccup; the monitor heals that inside the same bound and
	// the read is asked once more.
	for _, r := range c.live() {
		for _, key := range w.keys {
			err := w.readAt(r, key, chaosRecovery)
			if errors.Is(err, node.ErrNotInConfig) {
				if err = c.converged(time.Until(deadline)); err == nil {
					err = w.readAt(r, key, chaosRecovery)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("post-recovery: %w", err)
			}
		}
	}

	// Observability: every fault category the schedule contains must
	// have fired and been counted (they are also what Host.Status
	// surfaces as HostStatus.Faults).
	counts := eng.Counts()
	var scheduled []string
	for _, f := range sc.Sched.Clock {
		scheduled = append(scheduled, "clock."+f.Kind.String())
	}
	for _, f := range sc.Sched.Links {
		scheduled = append(scheduled, "link."+f.Kind.String())
	}
	for _, f := range sc.Sched.Disk {
		scheduled = append(scheduled, "disk."+f.Kind.String())
	}
	for _, key := range scheduled {
		if counts[key] == 0 {
			return nil, fmt.Errorf("scheduled %s faults never fired (counters: %v)", key, counts)
		}
	}

	sr := &ChaosScenarioResult{
		Name:        sc.Name,
		Acked:       w.acked.Load(),
		Resubmitted: w.resubmitted.Load(),
		Reads:       w.reads.Load(),
		Recovery:    recovery,
		Faults:      counts,
	}
	debugf("done: acked=%d resubmitted=%d reads=%d recovery=%v faults=%v",
		sr.Acked, sr.Resubmitted, sr.Reads, sr.Recovery, sr.Faults)
	return sr, nil
}
