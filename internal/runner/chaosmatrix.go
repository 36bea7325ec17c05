package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/chaos"
	"clockrsm/internal/clock"
	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/shard"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
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
	// Replicas is the cluster size (default 3).
	Replicas int
	// Groups is the number of replication groups per node (default 2).
	Groups int
	// Clients is the closed-loop writer count (default 3; at least
	// Groups so every group sees load).
	Clients int
	// Scenarios selects scenarios by name; empty runs every built-in
	// one (see DefaultScenarios).
	Scenarios []string
	// Tail is how long load keeps running after the last fault window
	// clears, so recovery is exercised under traffic (default 300 ms).
	Tail time.Duration
	// StepTimeout bounds one proposal or read attempt during load
	// (default 2 s: longer than any single fault-induced commit stall —
	// Suspect plus a reconfiguration — but short enough that a client
	// parked at a partitioned replica retries elsewhere promptly).
	StepTimeout time.Duration
	// RecoveryTimeout is the stated recovery bound: after the last
	// fault window clears, every replica must be back in every group's
	// configuration and every store byte-converged within this long
	// (default 15 s). Exceeding it fails the scenario.
	RecoveryTimeout time.Duration
	// Mode is the WAL fsync mode (default storage.SyncBatch).
	Mode storage.SyncMode
	// CheckpointEvery is the snapshot/compaction interval in commands
	// (default 8, small enough that checkpoint-error windows are hit).
	CheckpointEvery int
	// Delta is the CLOCKTIME interval (default 2 ms).
	Delta time.Duration
	// Suspect is the failure-detector timeout (default 350 ms). Drop
	// windows must exceed TWICE it: a dropped PREPARE is a permanent
	// history gap until a reconfiguration's command collection or a
	// rejoin's state transfer repairs it, both triggered by suspicion —
	// and the detector samples silence only once per timeout, so
	// guaranteed detection needs silence that outlives a full sampling
	// period past the threshold.
	Suspect time.Duration
	// ConsensusRetry is the reconfiguration consensus reproposal
	// timeout (default 25 ms).
	ConsensusRetry time.Duration
	// Debug, when set, receives progress lines (testing.T.Logf fits).
	Debug func(format string, args ...any)
}

func (c ChaosMatrixConfig) withDefaults() ChaosMatrixConfig {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Groups <= 0 {
		c.Groups = 2
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.Clients < c.Groups {
		c.Clients = c.Groups
	}
	if c.Tail == 0 {
		c.Tail = 300 * time.Millisecond
	}
	if c.StepTimeout == 0 {
		c.StepTimeout = 2 * time.Second
	}
	if c.RecoveryTimeout == 0 {
		c.RecoveryTimeout = 15 * time.Second
	}
	if c.Mode == storage.SyncDefault {
		c.Mode = storage.SyncBatch
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	}
	if c.Delta == 0 {
		c.Delta = 2 * time.Millisecond
	}
	if c.Suspect == 0 {
		c.Suspect = 350 * time.Millisecond
	}
	if c.ConsensusRetry == 0 {
		c.ConsensusRetry = 25 * time.Millisecond
	}
	return c
}

// ChaosScenario is one named fault plan of the matrix.
type ChaosScenario struct {
	Name  string
	Sched chaos.Schedule
}

// DefaultScenarios builds the built-in fault matrix for a cluster of n
// replicas with the given failure-detector timeout. Every drop window
// exceeds 2×suspect — see ChaosMatrixConfig.Suspect for why shorter
// drop windows would be unsound — while delay and clock windows are
// free to flap fast.
func DefaultScenarios(n int, suspect time.Duration) []ChaosScenario {
	if n < 3 {
		panic("chaos matrix needs at least 3 replicas")
	}
	drop := 2*suspect + 150*time.Millisecond
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
//   - bounded recovery: within RecoveryTimeout of the last fault window
//     clearing, every replica is back in every group's configuration
//     and all stores are byte-identical;
//   - observability: every scheduled fault category reports a non-zero
//     injection counter (surfaced through node.HostStatus.Faults).
func RunChaosMatrix(cfg ChaosMatrixConfig) (*ChaosMatrixResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("runner: ChaosMatrixConfig.Dir is required")
	}
	scenarios := DefaultScenarios(cfg.Replicas, cfg.Suspect)
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
	n, groups := cfg.Replicas, cfg.Groups
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	router := shard.NewRouter(groups)
	eng := chaos.New(sc.Sched)
	scDir := filepath.Join(cfg.Dir, sc.Name)
	if err := os.MkdirAll(scDir, 0o755); err != nil {
		return nil, err
	}

	// Base topology: deliberately asymmetric (satellite of PR 5's
	// staleness work) — links into the last replica are slower than the
	// reverse direction, on top of a 1 ms uniform mesh.
	base := wan.Uniform(n, time.Millisecond)
	far := types.ReplicaID(n - 1)
	for i := 0; i < n-1; i++ {
		base.SetOneWay(types.ReplicaID(i), far, 2*time.Millisecond)
	}
	hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: groups, Latency: base})

	reps := make([]*liveReplica, n)
	stopAll := func() {
		for _, lr := range reps {
			if lr != nil {
				lr.host.Stop()
			}
		}
	}
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		logs := make([]storage.Log, groups)
		for g := 0; g < groups; g++ {
			path := filepath.Join(scDir, fmt.Sprintf("r%d.g%d.log", i, g))
			fl, err := storage.OpenFileLog(path, storage.FileLogOptions{Mode: cfg.Mode})
			if err != nil {
				stopAll()
				return nil, err
			}
			logs[g] = eng.Log(id, fl)
		}
		tr := eng.Transport(hub.Endpoint(id))
		host, err := node.NewHost(id, spec, tr, node.HostOptions{
			Groups:     groups,
			Clock:      clock.NewMonotonic(eng.Clock(id, clock.System{})),
			NewLog:     func(g types.GroupID) storage.Log { return logs[g] },
			FaultStats: func() map[string]uint64 { return eng.ReplicaCounts(id) },
		})
		if err != nil {
			stopAll()
			return nil, err
		}
		lr := &liveReplica{host: host}
		for g := 0; g < groups; g++ {
			app := lr.addGroup()
			nd := host.Group(types.GroupID(g))
			nd.Bind(app)
			nd.SetProtocol(core.New(nd, app, core.Options{
				ClockTimeInterval: cfg.Delta,
				SuspectTimeout:    cfg.Suspect,
				ConsensusRetry:    cfg.ConsensusRetry,
				CheckpointEvery:   cfg.CheckpointEvery,
			}))
		}
		if err := host.Start(); err != nil {
			stopAll()
			return nil, err
		}
		reps[i] = lr
	}
	defer stopAll()

	// Heal monitor: a fault-removed replica is alive and must be driven
	// back in as soon as its links allow — the operator's job, played
	// here so recovery after the window clears is automatic. Two
	// triggers: the replica's own status says it is out of the
	// configuration, or — the case a fully isolated victim cannot see,
	// because the SUSPEND that removed it was itself dropped — its epoch
	// lags the rest of the group. The lag trigger is debounced over two
	// observations so the ordinary skew of an install propagating does
	// not cause spurious churn.
	monStop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		lagging := make(map[[2]int]types.Epoch)
		for {
			select {
			case <-monStop:
				return
			case <-time.After(100 * time.Millisecond):
			}
			maxEpoch := make([]types.Epoch, groups)
			sts := make([]node.HostStatus, n)
			for i, rep := range reps {
				sts[i] = rep.host.Status()
				for _, gs := range sts[i].Groups {
					if gs.Epoch > maxEpoch[gs.Group] {
						maxEpoch[gs.Group] = gs.Epoch
					}
				}
			}
			for i, rep := range reps {
				for _, gs := range sts[i].Groups {
					k := [2]int{i, int(gs.Group)}
					switch {
					case !gs.InConfig:
						delete(lagging, k)
						debugf("heal: replica %d out of group %d config (epoch %d); rejoining", rep.host.ID(), gs.Group, gs.Epoch)
						_ = rep.host.Group(gs.Group).Rejoin()
					case gs.Epoch < maxEpoch[gs.Group]:
						if prev, ok := lagging[k]; ok && prev == gs.Epoch {
							delete(lagging, k)
							debugf("heal: replica %d stuck at group %d epoch %d (cluster at %d); rejoining", rep.host.ID(), gs.Group, gs.Epoch, maxEpoch[gs.Group])
							_ = rep.host.Group(gs.Group).Rejoin()
						} else {
							lagging[k] = gs.Epoch
						}
					default:
						delete(lagging, k)
					}
				}
			}
		}
	}()
	defer func() {
		close(monStop)
		monWG.Wait()
	}()

	acks := struct {
		sync.Mutex
		last map[string]int
	}{last: make(map[string]int)}
	lastAcked := func(key string) int {
		acks.Lock()
		defer acks.Unlock()
		if s, ok := acks.last[key]; ok {
			return s
		}
		return -1
	}
	var ackedN, resubmitted, readsN atomic.Uint64

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	clientErrs := make([]error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key, g := clientKey(router, c)
			for seq := 0; !stopped(); seq++ {
				payload := kvstore.Put(key, []byte(fmt.Sprintf("c%d-%d", c, seq)))
				// Retry until acked, rotating the target so a client whose
				// preferred replica is partitioned (or reconfigured out)
				// moves on instead of spinning against it.
				for attempt := 0; !stopped(); attempt++ {
					target := reps[(c+attempt)%n]
					ctx, cancel := context.WithTimeout(context.Background(), cfg.StepTimeout)
					fut, err := target.host.Group(g).Propose(ctx, payload)
					if err == nil {
						_, err = fut.Wait(ctx)
					}
					cancel()
					if err == nil {
						acks.Lock()
						acks.last[key] = seq
						acks.Unlock()
						ackedN.Add(1)
						break
					}
					resubmitted.Add(1)
				}
				if seq%4 != 3 || stopped() {
					continue
				}
				// Cross-replica linearizability: read at a replica other
				// than the writer's preferred one; a completed read must
				// observe every write acked before it was issued. A read
				// whose serving replica is fault-stalled parks behind the
				// watermark and times out — tolerated, never served stale.
				floor := lastAcked(key)
				rd := reps[(c+1)%n]
				if floor < 0 {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), cfg.StepTimeout)
				rres, err := rd.host.ReadKey(ctx, key, kvstore.Get(key), node.Linearizable)
				cancel()
				switch {
				case err == nil:
					got, perr := parseSeq(rres.Value)
					if perr != nil || got < floor {
						var gdiag string
						for _, g2 := range rd.host.Status().Groups {
							if g2.Group == g {
								gdiag = fmt.Sprintf("epoch=%d inConfig=%t members=%v watermark=%d", g2.Epoch, g2.InConfig, g2.Members, g2.ReadWatermark)
							}
						}
						clientErrs[c] = fmt.Errorf("client %d: linearizable read of %q at %v returned seq %d (%v), but seq %d was acked before the read (served at watermark=%d age=%v replicated=%t; server %s)",
							c, key, rd.host.ID(), got, perr, floor, rres.Watermark, rres.Age, rres.Replicated, gdiag)
						return
					}
					readsN.Add(1)
				case errors.Is(err, node.ErrNotInConfig), errors.Is(err, node.ErrStopped),
					errors.Is(err, context.DeadlineExceeded), errors.Is(err, node.ErrCanceled):
					// Serving replica mid-fault or mid-rejoin.
				default:
					clientErrs[c] = fmt.Errorf("client %d: read of %q: %w", c, key, err)
					return
				}
			}
		}(c)
	}

	// Let the cluster commit a little healthy traffic, then start the
	// fault timeline and ride it out plus the tail.
	time.Sleep(100 * time.Millisecond)
	eng.Arm()
	armed := time.Now()
	faultSpan := sc.Sched.End()
	debugf("armed: %d clock / %d link / %d disk faults over %v", len(sc.Sched.Clock), len(sc.Sched.Links), len(sc.Sched.Disk), faultSpan)
	time.Sleep(faultSpan + cfg.Tail)
	close(stop)
	wg.Wait()
	for _, err := range clientErrs {
		if err != nil {
			return nil, err
		}
	}

	// Recovery: full membership and byte-identical stores within the
	// stated bound of the last fault window clearing.
	cleared := armed.Add(faultSpan)
	deadline := cleared.Add(cfg.RecoveryTimeout)
	for {
		ok := true
		var detail string
		for _, rep := range reps {
			for _, gs := range rep.host.Status().Groups {
				if !gs.InConfig {
					ok = false
					detail = fmt.Sprintf("replica %d not in group %d config", rep.host.ID(), gs.Group)
				}
			}
		}
		for g := 0; g < groups && ok; g++ {
			ref := reps[0].stores[g].Snapshot()
			for i := 1; i < n; i++ {
				if !bytes.Equal(ref, reps[i].stores[g].Snapshot()) {
					ok = false
					detail = fmt.Sprintf("group %d: replica 0 (%d keys) and replica %d (%d keys) diverge",
						g, reps[0].stores[g].Len(), i, reps[i].stores[g].Len())
					break
				}
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			var diff strings.Builder
			diff.WriteString(detail)
			for g := 0; g < groups; g++ {
				for i := 0; i < n; i++ {
					nd := reps[i].host.Group(types.GroupID(g))
					var pend, early int
					var committed uint64
					var epoch types.Epoch
					var rcfg string
					nd.Do(func() {
						rep := nd.Protocol().(*core.Replica)
						pend, early = rep.PendingLen(), rep.EarlyAckLen()
						committed, epoch = rep.Committed(), rep.Epoch()
						rcfg = rep.DebugReconfig()
					})
					fmt.Fprintf(&diff, "\n  r%d g%d applied=%d epoch=%d committed=%d pending=%d earlyAcks=%d %s:",
						i, g, reps[i].stores[g].Applied(), epoch, committed, pend, early, rcfg)
					for k, v := range reps[i].stores[g].SnapshotMap() {
						fmt.Fprintf(&diff, " %s=%s", k, v)
					}
				}
			}
			return nil, fmt.Errorf("no recovery within %v of faults clearing: %s", cfg.RecoveryTimeout, diff.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	recovery := time.Since(cleared)
	if recovery < 0 {
		recovery = 0
	}

	// Zero lost acks: the converged value of every key is at least as
	// new as the last acked write to it.
	for c := 0; c < cfg.Clients; c++ {
		key, g := clientKey(router, c)
		floor := lastAcked(key)
		if floor < 0 {
			continue
		}
		val, ok := reps[0].stores[g].Lookup(key)
		if !ok {
			return nil, fmt.Errorf("key %q lost: seq %d was acked but the key is absent after convergence", key, floor)
		}
		got, err := parseSeq(val)
		if err != nil {
			return nil, fmt.Errorf("key %q holds %q: %v", key, val, err)
		}
		if got < floor {
			return nil, fmt.Errorf("key %q converged to seq %d, but seq %d was acked (acked write lost)", key, got, floor)
		}
	}

	// Final linearizable read at every replica: with the faults cleared
	// and membership healed, no replica may stay read-stalled.
	for _, rep := range reps {
		for c := 0; c < cfg.Clients; c++ {
			key, _ := clientKey(router, c)
			floor := lastAcked(key)
			if floor < 0 {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), cfg.RecoveryTimeout)
			rres, err := rep.host.ReadKey(ctx, key, kvstore.Get(key), node.Linearizable)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("post-recovery linearizable read of %q at replica %d: %w", key, rep.host.ID(), err)
			}
			if got, perr := parseSeq(rres.Value); perr != nil || got < floor {
				return nil, fmt.Errorf("post-recovery read of %q at replica %d returned seq %d (%v), acked floor %d", key, rep.host.ID(), got, perr, floor)
			}
		}
	}

	// Zero duplicate executions, at every (replica, group).
	for _, rep := range reps {
		if err := rep.atMostOnce(); err != nil {
			return nil, err
		}
	}

	// Observability: every fault category the schedule contains must
	// have fired and been counted (they are also what Host.Status
	// surfaces as HostStatus.Faults).
	counts := eng.Counts()
	missing := func(key string) error {
		if counts[key] == 0 {
			return fmt.Errorf("scheduled %s faults never fired (counters: %v)", key, counts)
		}
		return nil
	}
	for _, f := range sc.Sched.Clock {
		if err := missing("clock." + f.Kind.String()); err != nil {
			return nil, err
		}
	}
	for _, f := range sc.Sched.Links {
		if err := missing("link." + f.Kind.String()); err != nil {
			return nil, err
		}
	}
	for _, f := range sc.Sched.Disk {
		if err := missing("disk." + f.Kind.String()); err != nil {
			return nil, err
		}
	}

	sr := &ChaosScenarioResult{
		Name:        sc.Name,
		Acked:       ackedN.Load(),
		Resubmitted: resubmitted.Load(),
		Reads:       readsN.Load(),
		Recovery:    recovery,
		Faults:      counts,
	}
	debugf("done: acked=%d resubmitted=%d reads=%d recovery=%v faults=%v",
		sr.Acked, sr.Resubmitted, sr.Reads, sr.Recovery, sr.Faults)
	return sr, nil
}
