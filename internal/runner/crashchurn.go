package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/rsm"
	"clockrsm/internal/shard"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
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
	// Replicas is the cluster size (default 3). One replica is down at
	// a time, so consensus keeps its majority.
	Replicas int
	// Groups is the number of replication groups per node (default 2).
	Groups int
	// Clients is the closed-loop writer count (default 4; at least
	// Groups so every group sees load).
	Clients int
	// Cycles is how many crash+restart rounds run under load (default
	// 3). Round k kills replica k mod Replicas.
	Cycles int
	// Settle is how long load runs between lifecycle steps (default
	// 250 ms) — long enough for survivors to reconfigure the dead
	// replica out and advance their checkpoints past its log.
	Settle time.Duration
	// StepTimeout bounds each proposal and read wait (default 20 s;
	// covers the commit stall between a crash and the reconfiguration
	// that removes the dead replica).
	StepTimeout time.Duration
	// RecoveryTimeout bounds how long a restarted replica may take to
	// rejoin the configuration, and the final convergence wait (default
	// 15 s). Exceeding it fails the run: recovery must be bounded.
	RecoveryTimeout time.Duration
	// Mode is the WAL fsync mode (default storage.SyncBatch — group
	// commit, the mode whose crash window the run exercises).
	Mode storage.SyncMode
	// CheckpointEvery is the snapshot/compaction interval in commands
	// (default 16; small, so the dead window reliably advances the
	// survivors' checkpoints past the victim's log).
	CheckpointEvery int
	// Delta is the CLOCKTIME interval (default 2 ms).
	Delta time.Duration
	// Suspect is the failure-detector timeout (default 350 ms). It must
	// be set: a dead configured replica stalls every commit until it is
	// reconfigured out. Too aggressive a value makes the detector remove
	// live replicas whenever the host hiccups; the runner heals such
	// spurious removals, but each one costs an epoch change.
	Suspect time.Duration
	// ConsensusRetry is the reconfiguration consensus reproposal timeout
	// (default 25 ms; the package default is tuned for WANs).
	ConsensusRetry time.Duration
	// Debug, when set, receives progress lines (testing.T.Logf fits).
	Debug func(format string, args ...any)
}

func (c CrashChurnConfig) withDefaults() CrashChurnConfig {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Groups <= 0 {
		c.Groups = 2
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Clients < c.Groups {
		c.Clients = c.Groups
	}
	if c.Cycles <= 0 {
		c.Cycles = 3
	}
	if c.Settle == 0 {
		c.Settle = 250 * time.Millisecond
	}
	if c.StepTimeout == 0 {
		c.StepTimeout = 20 * time.Second
	}
	if c.RecoveryTimeout == 0 {
		c.RecoveryTimeout = 15 * time.Second
	}
	if c.Mode == storage.SyncDefault {
		c.Mode = storage.SyncBatch
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 16
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

// liveReplica is one running incarnation of a replica: its host, the
// per-group stores the final agreement check reads, and the per-group
// at-most-once checkers. A restart builds a fresh liveReplica, so the
// checkers reset with the process as the state machines do.
type liveReplica struct {
	host   *node.Host
	stores []*kvstore.Store
	dups   []*dupTracker
}

// dupTracker detects duplicate executions at one (replica, group) state
// machine: a proposal must execute at most once there. Proposals are told
// apart by timestamp, which the protocol keeps unique, not by CommandID:
// a restarted replica numbers its commands from 1 again.
type dupTracker struct {
	mu   sync.Mutex
	seen map[types.Timestamp]bool
	dups []types.CommandID
}

func (d *dupTracker) observe(ts types.Timestamp, id types.CommandID) {
	d.mu.Lock()
	if d.seen[ts] {
		d.dups = append(d.dups, id)
	} else {
		d.seen[ts] = true
	}
	d.mu.Unlock()
}

// addGroup creates the next group's store behind an rsm.App whose
// OnCommit feeds that group's at-most-once checker.
func (lr *liveReplica) addGroup() *rsm.App {
	store, dt := kvstore.New(), &dupTracker{seen: make(map[types.Timestamp]bool)}
	lr.stores = append(lr.stores, store)
	lr.dups = append(lr.dups, dt)
	return &rsm.App{SM: store, OnCommit: func(ts types.Timestamp, cmd types.Command) { dt.observe(ts, cmd.ID) }}
}

// atMostOnce fails if this incarnation executed any command twice in
// one group: replay, catch-up and resubmission must never re-apply a
// command the state machine already holds.
func (lr *liveReplica) atMostOnce() error {
	for g, dt := range lr.dups {
		dt.mu.Lock()
		dups := dt.dups
		dt.mu.Unlock()
		if len(dups) > 0 {
			return fmt.Errorf("replica %v group %d executed %d commands more than once (first: %v)", lr.host.ID(), g, len(dups), dups[0])
		}
	}
	return nil
}

// RunCrashChurn stands up a Replicas×Groups cluster over TCP and file
// logs, then — under closed-loop load — SIGKILL-equivalently crashes
// and restarts one replica per cycle: the event loops stop dead and the
// file logs are abandoned open, so whatever the group-commit buffer
// held unsynced is lost, exactly as in a process kill. It verifies:
//
//   - zero lost acked commands: for every key, the converged value's
//     sequence number is at least the last acked write's;
//   - per-key linearizability over survivors: a linearizable read at a
//     replica that did not serve the write observes every write acked
//     before the read was issued;
//   - agreement: after the run, every replica's store serializes to
//     identical bytes, group by group;
//   - bounded recovery: every restarted replica rejoins the
//     configuration within RecoveryTimeout, catching up through
//     checkpoint + tail state transfer (at least one remote snapshot
//     restore per restart).
func RunCrashChurn(cfg CrashChurnConfig) (*CrashChurnResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("runner: CrashChurnConfig.Dir is required")
	}
	debugf := func(format string, args ...any) {
		if cfg.Debug != nil {
			cfg.Debug(format, args...)
		}
	}
	n, groups := cfg.Replicas, cfg.Groups
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	router := shard.NewRouter(groups)

	// start boots (or reboots) replica id over its on-disk logs. A log
	// with contents means a restart: replay it, and rejoin the
	// configuration the cluster moved to while the replica was down.
	start := func(id types.ReplicaID) (*liveReplica, error) {
		logs := make([]storage.Log, groups)
		replay := make([]bool, groups)
		for g := 0; g < groups; g++ {
			path := filepath.Join(cfg.Dir, fmt.Sprintf("r%d.g%d.log", id, g))
			fl, err := storage.OpenFileLog(path, storage.FileLogOptions{Mode: cfg.Mode})
			if err != nil {
				return nil, fmt.Errorf("replica %v: %w", id, err)
			}
			logs[g] = fl
			// A restart is any log with history: live entries, or a
			// checkpoint that compacted them all (Len alone would mistake a
			// fully-compacted log for a fresh boot and skip the rejoin).
			_, hasCP := fl.LastCheckpoint()
			replay[g] = fl.Len() > 0 || hasCP
		}
		tr := transport.NewTCP(id, addrs, transport.TCPOptions{
			Groups:    groups,
			DialRetry: 50 * time.Millisecond,
		})
		host, err := node.NewHost(id, spec, tr, node.HostOptions{
			Groups: groups,
			NewLog: func(g types.GroupID) storage.Log { return logs[g] },
		})
		if err != nil {
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
				Replay:            replay[g],
				CheckpointEvery:   cfg.CheckpointEvery,
			}))
		}
		if err := host.Start(); err != nil {
			return nil, err
		}
		for g := 0; g < groups; g++ {
			if replay[g] {
				if err := host.Group(types.GroupID(g)).Rejoin(); err != nil {
					host.Stop()
					return nil, fmt.Errorf("replica %v group %d rejoin: %w", id, g, err)
				}
			}
		}
		return lr, nil
	}

	// reps[i] is replica i's current incarnation; alive[i] gates client
	// routing. Guarded by mu: the churn goroutine swaps incarnations
	// while clients read them.
	var mu sync.RWMutex
	reps := make([]*liveReplica, n)
	alive := make([]bool, n)
	for i := 0; i < n; i++ {
		lr, err := start(types.ReplicaID(i))
		if err != nil {
			for j := 0; j < i; j++ {
				reps[j].host.Stop()
			}
			return nil, err
		}
		reps[i], alive[i] = lr, true
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for i, lr := range reps {
			if alive[i] {
				lr.host.Stop()
			}
		}
	}()

	// pickAlive returns a live replica, preferring replica pref and
	// skipping replica not (-1 disables the exclusion).
	pickAlive := func(pref int, not int) *liveReplica {
		mu.RLock()
		defer mu.RUnlock()
		for k := 0; k < n; k++ {
			i := (pref + k) % n
			if alive[i] && i != not {
				return reps[i]
			}
		}
		return nil
	}

	// acks tracks, per key, the highest sequence number whose write was
	// acked — the set of writes the run must prove survived.
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

	res := &CrashChurnResult{}
	var ackedN, resubmitted, readsN atomic.Uint64

	// Heal spurious removals: under load an aggressive failure detector
	// occasionally reconfigures a perfectly live replica out (a scheduling
	// hiccup looks like a crash). An operator's monitor would notice and
	// rejoin it; this monitor plays that role so the run converges on the
	// full membership. Rejoin is asynchronous and self-retrying, so
	// poking an already-rejoining group is harmless.
	monStop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-monStop:
				return
			case <-time.After(200 * time.Millisecond):
			}
			mu.RLock()
			live := make([]*liveReplica, 0, n)
			for i, rep := range reps {
				if alive[i] {
					live = append(live, rep)
				}
			}
			mu.RUnlock()
			for _, rep := range live {
				for _, gs := range rep.host.Status().Groups {
					if !gs.InConfig {
						debugf("heal: replica %d out of group %d config (epoch %d); rejoining", rep.host.ID(), gs.Group, gs.Epoch)
						_ = rep.host.Group(gs.Group).Rejoin()
					}
				}
			}
		}
	}()
	defer func() {
		close(monStop)
		monWG.Wait()
	}()

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
				// Retry the same payload until acked: a write is at most
				// once outstanding per key, so resubmitting after an
				// ambiguous failure (crash, timeout) can at worst commit
				// the same value twice in a row.
				for !stopped() {
					target := pickAlive(c%n, -1)
					if target == nil {
						clientErrs[c] = fmt.Errorf("client %d: no live replica", c)
						return
					}
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
				// Every few acked writes, check per-key linearizability
				// from a different replica: a linearizable read must
				// observe everything acked before it was issued.
				if seq%4 != 3 || stopped() {
					continue
				}
				floor := lastAcked(key)
				rd := pickAlive((c+1)%n, c%n)
				if rd == nil || floor < 0 {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), cfg.StepTimeout)
				rres, err := rd.host.ReadKey(ctx, key, kvstore.Get(key), node.Linearizable)
				cancel()
				switch {
				case err == nil:
					got, perr := parseSeq(rres.Value)
					if perr != nil || got < floor {
						clientErrs[c] = fmt.Errorf("client %d: linearizable read of %q at %v returned seq %d (%v), but seq %d was acked before the read",
							c, key, rd.host.ID(), got, perr, floor)
						return
					}
					readsN.Add(1)
				case errors.Is(err, node.ErrNotInConfig), errors.Is(err, node.ErrStopped),
					errors.Is(err, context.DeadlineExceeded):
					// The serving replica was mid-crash or mid-rejoin;
					// nothing to check.
				default:
					clientErrs[c] = fmt.Errorf("client %d: read of %q: %w", c, key, err)
					return
				}
			}
		}(c)
	}

	// The churn itself: crash one replica per cycle (stop its loops,
	// abandon its logs unsynced), let the survivors reconfigure it out
	// and move on under load, then restart it over the same logs and
	// require it back in the configuration within RecoveryTimeout.
	churnErr := func() error {
		time.Sleep(cfg.Settle)
		for cycle := 0; cycle < cfg.Cycles; cycle++ {
			victim := cycle % n
			mu.Lock()
			alive[victim] = false
			crashed := reps[victim]
			mu.Unlock()
			surv := pickAlive((victim+1)%n, victim)
			if surv == nil {
				return fmt.Errorf("cycle %d: no survivor left to measure recovery against", cycle)
			}
			applied0 := make([]uint64, groups)
			for g := 0; g < groups; g++ {
				applied0[g] = surv.stores[g].Applied()
			}
			crashed.host.Stop() // logs stay open: the unsynced tail is lost
			res.Kills++
			if err := crashed.atMostOnce(); err != nil {
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}

			// Let the survivors reconfigure the victim out and commit far
			// enough past its log frontier that every group's checkpoint
			// provably advances beyond it (two checkpoint intervals): the
			// restart below must then catch up through a shipped snapshot
			// + tail, never a full command replay.
			want := uint64(2 * cfg.CheckpointEvery)
			deadAt := time.Now()
			for {
				behind := false
				for g := 0; g < groups; g++ {
					if surv.stores[g].Applied() < applied0[g]+want {
						behind = true
					}
				}
				if !behind {
					break
				}
				if time.Since(deadAt) > cfg.StepTimeout {
					return fmt.Errorf("cycle %d: survivors did not commit %d commands per group after the crash of replica %d", cycle, want, victim)
				}
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(cfg.Settle)

			// The victim replays its pre-crash epoch, where it was still a
			// member — InConfig alone would report recovery before the
			// rejoin ran. Recovery means re-admission: the victim must be
			// in the configuration at an epoch strictly newer than what
			// the survivors hold now (a rejoin always forces a fresh
			// epoch), per group.
			eBase := make([]types.Epoch, groups)
			for _, gs := range surv.host.Status().Groups {
				eBase[int(gs.Group)] = gs.Epoch
			}

			restartAt := time.Now()
			lr, err := start(types.ReplicaID(victim))
			if err != nil {
				return fmt.Errorf("cycle %d: restart replica %d: %w", cycle, victim, err)
			}
			mu.Lock()
			reps[victim], alive[victim] = lr, true
			mu.Unlock()
			deadline := restartAt.Add(cfg.RecoveryTimeout)
			lastLog := time.Now()
			for {
				st := lr.host.Status()
				in := true
				for _, gs := range st.Groups {
					if !gs.InConfig || gs.Epoch <= eBase[int(gs.Group)] {
						in = false
					}
				}
				if in {
					break
				}
				if time.Since(lastLog) > 500*time.Millisecond {
					lastLog = time.Now()
					for _, gs := range st.Groups {
						nd := lr.host.Group(gs.Group)
						var dbg string
						nd.Do(func() { dbg = nd.Protocol().(*core.Replica).DebugReconfig() })
						debugf("cycle %d: victim r%d g%d (want epoch>%d) in=%t %s",
							cycle, victim, gs.Group, eBase[int(gs.Group)], gs.InConfig, dbg)
					}
					mu.RLock()
					others := make([]*liveReplica, 0, n)
					for i, rep := range reps {
						if i != victim && alive[i] {
							others = append(others, rep)
						}
					}
					mu.RUnlock()
					for _, rep := range others {
						for _, gs := range rep.host.Status().Groups {
							nd := rep.host.Group(gs.Group)
							var dbg string
							nd.Do(func() { dbg = nd.Protocol().(*core.Replica).DebugReconfig() })
							debugf("cycle %d: survivor r%d g%d vepoch=%d members=%s in=%t %s",
								cycle, rep.host.ID(), gs.Group, gs.Epoch, node.MemberString(gs.Members), gs.InConfig, dbg)
						}
					}
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("cycle %d: replica %d not back in the configuration after %v", cycle, victim, cfg.RecoveryTimeout)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if rec := time.Since(restartAt); rec > res.MaxRecovery {
				res.MaxRecovery = rec
			}
			var restores uint64
			for _, gs := range lr.host.Status().Groups {
				restores += gs.SnapRestores
			}
			if restores == 0 {
				return fmt.Errorf("cycle %d: replica %d rejoined without a single remote snapshot restore — catch-up did not go through checkpoint + tail state transfer", cycle, victim)
			}
			res.SnapRestores += restores
			time.Sleep(cfg.Settle)
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	if churnErr != nil {
		return nil, churnErr
	}
	for _, err := range clientErrs {
		if err != nil {
			return nil, err
		}
	}
	res.Acked = ackedN.Load()
	res.Resubmitted = resubmitted.Load()
	res.Reads = readsN.Load()

	// Agreement: wait for every replica's store to serialize to the
	// same bytes, group by group (kvstore snapshots are deterministic:
	// sorted keys plus the applied count, so byte equality means the
	// replicas executed the same command sequence).
	deadline := time.Now().Add(cfg.RecoveryTimeout)
	for {
		agree := true
		var detail string
		for g := 0; g < groups && agree; g++ {
			ref := reps[0].stores[g].Snapshot()
			for i := 1; i < n; i++ {
				if !bytes.Equal(ref, reps[i].stores[g].Snapshot()) {
					agree = false
					detail = fmt.Sprintf("group %d: replica 0 (%d keys) and replica %d (%d keys) diverge",
						g, reps[0].stores[g].Len(), i, reps[i].stores[g].Len())
					break
				}
			}
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			var diff strings.Builder
			diff.WriteString(detail)
			for g := 0; g < groups; g++ {
				for i := 0; i < n; i++ {
					m := reps[i].stores[g].SnapshotMap()
					fmt.Fprintf(&diff, "\n  r%d g%d applied=%d:", i, g, reps[i].stores[g].Applied())
					for k, v := range m {
						fmt.Fprintf(&diff, " %s=%s", k, v)
					}
				}
			}
			return nil, fmt.Errorf("crash-churn: stores never converged: %s", diff.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Zero lost acked commands: the converged value of every key is at
	// least as new as the last acked write to it.
	for c := 0; c < cfg.Clients; c++ {
		key, g := clientKey(router, c)
		floor := lastAcked(key)
		if floor < 0 {
			continue
		}
		val, ok := reps[0].stores[g].Lookup(key)
		if !ok {
			return nil, fmt.Errorf("crash-churn: key %q lost: seq %d was acked but the key is absent after convergence", key, floor)
		}
		got, err := parseSeq(val)
		if err != nil {
			return nil, fmt.Errorf("crash-churn: key %q holds %q: %v", key, val, err)
		}
		if got < floor {
			return nil, fmt.Errorf("crash-churn: key %q converged to seq %d, but seq %d was acked (acked command lost)", key, got, floor)
		}
	}

	// No surviving incarnation executed a command twice (the crashed ones
	// were checked as they were killed).
	for _, lr := range reps {
		if err := lr.atMostOnce(); err != nil {
			return nil, fmt.Errorf("crash-churn: %w", err)
		}
	}

	// The future-epoch hold buffer never overflowed silently into a
	// drop: overflow now forces a rejoin, but in a run this size any
	// drop at all means the buffer was mis-sized.
	for i := 0; i < n; i++ {
		for g := 0; g < groups; g++ {
			nd := reps[i].host.Group(types.GroupID(g))
			var heldDropped uint64
			nd.Do(func() { heldDropped = nd.Protocol().(*core.Replica).HeldDropped() })
			if heldDropped > 0 {
				return nil, fmt.Errorf("replica %d group %d dropped %d held future-epoch messages", i, g, heldDropped)
			}
		}
	}
	return res, nil
}

// parseSeq extracts the sequence number from a "c<client>-<seq>" value.
func parseSeq(val []byte) (int, error) {
	s := string(val)
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return 0, fmt.Errorf("malformed value %q", s)
	}
	return strconv.Atoi(s[i+1:])
}

// freeAddrs reserves n distinct loopback TCP addresses. The listeners
// are closed before returning, so a replica (and its restarts) can bind
// the address; the window in which another process could steal the port
// is the usual test-harness race and acceptably small.
func freeAddrs(n int) (map[types.ReplicaID]string, error) {
	addrs := make(map[types.ReplicaID]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[types.ReplicaID(i)] = ln.Addr().String()
	}
	return addrs, nil
}
