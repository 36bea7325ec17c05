package runner

import (
	"errors"
	"fmt"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/types"
)

// CrashChurnConfig describes a crash-churn experiment: a multi-group
// cluster over real TCP transports and real file logs serving a
// closed-loop client population while replicas are crashed (event loops
// stopped dead, logs abandoned with their group-commit buffers
// unsynced) and restarted over the same logs. Each restart recovers by
// replaying the on-disk checkpoint + tail, then rejoins the
// configuration and catches up on the history it missed via checkpoint
// + tail state transfer — the full durability story of Section V-B,
// asserted end to end.
type CrashChurnConfig struct {
	// Dir is where replica logs live (required; group g of replica r is
	// Dir/r<r>.g<g>.log). A crashed replica restarts over these files.
	Dir string
	// Cycles is how many crash+restart rounds run under load (default
	// 3). Round k kills replica k mod 3.
	Cycles int
	// Debug, when set, receives progress lines (testing.T.Logf fits).
	Debug func(format string, args ...any)
}

const (
	// churnReplicas: one replica is down at a time, so three keep the
	// consensus majority.
	churnReplicas = 3
	churnGroups   = 2
	// churnClients is the closed-loop writer count: at least the group
	// count, so every group sees load.
	churnClients = 4
	// churnSettle is how long load runs between lifecycle steps — long
	// enough for survivors to reconfigure the dead replica out and
	// advance their checkpoints past its log.
	churnSettle = 250 * time.Millisecond
	// churnStep bounds each proposal and read wait; it covers the commit
	// stall between a crash and the reconfiguration that removes the dead
	// replica.
	churnStep = 20 * time.Second
	// churnRecovery bounds how long a restarted replica may take to
	// rejoin the configuration, and the final convergence wait.
	// Exceeding it fails the run: recovery must be bounded.
	churnRecovery = 15 * time.Second
	// churnCheckpointEvery is small, so the dead window reliably advances
	// the survivors' checkpoints past the victim's log.
	churnCheckpointEvery = 16
	// faultDelta is the CLOCKTIME interval of the fault scenarios.
	faultDelta = 2 * time.Millisecond
	// faultSuspect is their failure-detector timeout. It must be set: a
	// dead configured replica stalls every commit until it is
	// reconfigured out. Too aggressive a value makes the detector remove
	// live replicas whenever the host hiccups; the heal monitor repairs
	// such spurious removals, but each one costs an epoch change.
	faultSuspect = 350 * time.Millisecond
	// faultConsensusRetry is the reconfiguration consensus reproposal
	// timeout (the package default is tuned for WANs).
	faultConsensusRetry = 25 * time.Millisecond
)

// CrashChurnResult reports one crash-churn run that passed all
// correctness assertions.
type CrashChurnResult struct {
	// Acked is the number of writes whose futures resolved — the
	// commands the run proves were never lost.
	Acked uint64
	// Resubmitted counts proposals retried after an ambiguous or
	// reconfiguration failure.
	Resubmitted uint64
	// Reads is the number of linearizable cross-replica reads that
	// checked acked writes were visible.
	Reads uint64
	// Kills is the number of crash+restart cycles driven.
	Kills int
	// SnapRestores is the total number of remote snapshot restores
	// performed by restarted replicas — proof that catch-up went
	// through checkpoint + tail state transfer, not full-log replay.
	SnapRestores uint64
	// MaxRecovery is the longest observed crash-to-rejoined time.
	MaxRecovery time.Duration
}

// RunCrashChurn stands up a 3-replica, 2-group cluster over TCP and file
// logs, then — under closed-loop load — SIGKILL-equivalently crashes
// and restarts one replica per cycle (cluster.kill). It verifies:
//
//   - zero lost acked commands: for every key, the converged value's
//     sequence number is at least the last acked write's;
//   - per-key linearizability over survivors: a linearizable read at a
//     replica that did not serve the write observes every write acked
//     before the read was issued;
//   - agreement and at-most-once execution (cluster.converged), the
//     killed incarnations checked as they die;
//   - bounded recovery: every restarted replica rejoins the
//     configuration within churnRecovery, catching up through
//     checkpoint + tail state transfer (at least one remote snapshot
//     restore per restart).
func RunCrashChurn(cfg CrashChurnConfig) (*CrashChurnResult, error) {
	if cfg.Dir == "" {
		return nil, errors.New("runner: CrashChurnConfig.Dir is required")
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 3
	}
	c, err := newCluster(clusterSpec{
		replicas: churnReplicas, groups: churnGroups,
		tcp: true, log: logFile, dir: cfg.Dir,
		core: core.Options{
			ClockTimeInterval: faultDelta,
			SuspectTimeout:    faultSuspect,
			ConsensusRetry:    faultConsensusRetry,
			CheckpointEvery:   churnCheckpointEvery,
		},
		debugf: cfg.Debug,
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()
	w := c.startWriters(c.clientKeys(churnClients), churnStep)

	res := &CrashChurnResult{}
	churnErr := func() error {
		time.Sleep(churnSettle)
		for cycle := 0; cycle < cfg.Cycles; cycle++ {
			if err := crashCycle(c, types.ReplicaID(cycle%churnReplicas), res); err != nil {
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}
		}
		return nil
	}()
	if err := w.finish(); churnErr != nil || err != nil {
		return nil, errors.Join(churnErr, err)
	}
	res.Acked, res.Resubmitted, res.Reads = w.acked.Load(), w.resubmitted.Load(), w.reads.Load()

	if err := c.converged(churnRecovery); err != nil {
		return nil, fmt.Errorf("crash-churn: %w", err)
	}
	if err := w.survived(); err != nil {
		return nil, fmt.Errorf("crash-churn: %w", err)
	}
	if err := c.heldDropped(); err != nil {
		return nil, err
	}
	return res, nil
}

// crashCycle kills victim, lets the survivors reconfigure it out on
// their transports' exit report and move on under load, then restarts
// it over the same logs and requires it back within churnRecovery.
func crashCycle(c *cluster, victim types.ReplicaID, res *CrashChurnResult) error {
	surv := c.pick(int(victim)+1, int(victim))
	applied0 := make([]uint64, churnGroups)
	for g := range applied0 {
		applied0[g] = surv.stores[g].Applied()
	}
	other := c.pick(int(victim)+2, int(victim))
	downs := func() uint64 { return surv.tcp.Counters().PeerDowns + other.tcp.Counters().PeerDowns }
	downs0 := downs()
	if err := c.kill(victim); err != nil {
		return err
	}
	res.Kills++

	// Let the survivors reconfigure the victim out and commit far
	// enough past its log frontier that every group's checkpoint
	// provably advances beyond it (two checkpoint intervals): the
	// restart below must then catch up through a shipped snapshot
	// + tail, never a full command replay.
	const want = 2 * churnCheckpointEvery
	movedOn := func() bool {
		for g := range applied0 {
			if surv.stores[g].Applied() < applied0[g]+want {
				return false
			}
		}
		return true
	}
	for deadAt := time.Now(); !movedOn(); time.Sleep(5 * time.Millisecond) {
		if time.Since(deadAt) > churnStep {
			return fmt.Errorf("survivors did not commit %d commands per group after the crash of replica %d", want, victim)
		}
	}
	if downs() == downs0 {
		return fmt.Errorf("no survivor's transport reported replica %d down: the timeout, not the exit, removed it", victim)
	}
	time.Sleep(churnSettle)

	// The victim replays its pre-crash epoch, where it was still a
	// member — InConfig alone would report recovery before the
	// rejoin ran. Recovery means re-admission: the victim must be
	// in the configuration at an epoch strictly newer than what
	// the survivors hold now (a rejoin always forces a fresh
	// epoch), per group.
	eBase := make([]types.Epoch, churnGroups)
	for _, gs := range surv.host.Status().Groups {
		eBase[gs.Group] = gs.Epoch
	}
	restartAt := time.Now()
	r, err := c.restart(victim)
	if err != nil {
		return fmt.Errorf("restart replica %d: %w", victim, err)
	}
	readmitted := func() bool {
		for _, gs := range r.host.Status().Groups {
			if !gs.InConfig || gs.Epoch <= eBase[gs.Group] {
				return false
			}
		}
		return true
	}
	for lastLog := restartAt; !readmitted(); time.Sleep(5 * time.Millisecond) {
		if time.Since(restartAt) > churnRecovery {
			return fmt.Errorf("replica %d not back in the configuration (want epochs > %v) after %v:%s", victim, eBase, churnRecovery, c.dump())
		}
		if time.Since(lastLog) > 500*time.Millisecond {
			lastLog = time.Now()
			c.debugf("victim r%d waiting for epochs > %v:%s", victim, eBase, c.dump())
		}
	}
	if rec := time.Since(restartAt); rec > res.MaxRecovery {
		res.MaxRecovery = rec
	}
	var restores uint64
	for _, gs := range r.host.Status().Groups {
		restores += gs.SnapRestores
	}
	if restores == 0 {
		return fmt.Errorf("replica %d rejoined without a single remote snapshot restore — catch-up did not go through checkpoint + tail state transfer", victim)
	}
	res.SnapRestores += restores
	time.Sleep(churnSettle)
	return nil
}
