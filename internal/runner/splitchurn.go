package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/reshard"
	"clockrsm/internal/types"
)

// SplitChurnConfig describes a split-churn experiment: a multi-group
// cluster over real TCP transports and real file logs serving a
// closed-loop client population while the key space is resharded live —
// first by a coordinator that crashes between its checkpoint and the
// ownership flip (healed by racing coordinators on other replicas),
// then by a clean split — with per-key linearizability asserted across
// the split boundary throughout.
type SplitChurnConfig struct {
	// Dir is where replica logs and routing tables live (required;
	// group g of replica r is Dir/r<r>.g<g>.log, its routing table
	// Dir/r<r>.routes).
	Dir string
	// Debug, when set, receives progress lines (testing.T.Logf fits).
	Debug func(format string, args ...any)
}

const (
	splitReplicas = 3
	// splitGroups is how many groups the genesis routing table routes to.
	splitGroups = 2
	// splitSpares is the extra hosted capacity splits grow into: one
	// target for the crash-healed split, one for the clean split.
	splitSpares = 2
	// splitClients is a multiple of 3 so every key category — staying
	// slot, migrating slot, other group — sees load.
	splitClients = 6
	// splitSettle is how long load runs between resharding steps.
	splitSettle = 250 * time.Millisecond
	// splitStep bounds each proposal and read wait; it must cover the
	// fence-to-heal window, during which writes to migrating keys park.
	splitStep = 20 * time.Second
	// splitConverge bounds the waits for routing tables and stores to
	// converge across replicas.
	splitConverge = 15 * time.Second
	// splitCheckpointEvery is the snapshot/compaction interval in
	// commands.
	splitCheckpointEvery = 16
)

// SplitChurnResult reports one split-churn run that passed all
// correctness assertions.
type SplitChurnResult struct {
	// Acked is the number of writes whose futures resolved.
	Acked uint64
	// Resubmitted counts proposals retried after an ambiguous failure.
	Resubmitted uint64
	// Reads is the number of linearizable cross-replica reads that
	// checked acked writes stayed visible across the split boundary.
	Reads uint64
	// Splits is the number of completed splits (including the healed
	// one).
	Splits int
	// HealedSlots is the number of slots the racing Heal calls rolled
	// forward after the coordinator crash.
	HealedSlots int
	// MovedPairs is the total key/value pairs seeded into split targets.
	MovedPairs int
	// RouteVersion is the highest routing-table version any replica
	// reached.
	RouteVersion uint64
	// FenceStall is the longest observed write stall attributable to the
	// fence-to-heal window.
	FenceStall time.Duration
}

// splitKeyFor finds a key whose slot falls in the wanted category under
// the genesis table: 0 = source-group slot that stays, 1 = source-group
// slot the first split moves, 2 = any other group. Categories are
// derived from the same PlanSplit the coordinator will run, so the
// client population provably covers both sides of the boundary.
func splitKeyFor(tbl *reshard.Table, moved map[int]bool, cli, cat int) string {
	for salt := 0; ; salt++ {
		key := fmt.Sprintf("c%d-%d", cli, salt)
		slot := tbl.SlotOf(key)
		owner := tbl.Slots[slot].Owner
		switch cat {
		case 0:
			if owner == 0 && !moved[slot] {
				return key
			}
		case 1:
			if moved[slot] {
				return key
			}
		default:
			if owner != 0 {
				return key
			}
		}
	}
}

// RunSplitChurn stands up a 3-replica cluster over TCP and file logs
// hosting splitGroups active groups and splitSpares spares, then —
// under closed-loop load — drives two live splits of group 0 and group
// 1 into the spare groups. The first split's coordinator is killed
// between its checkpoint and the ownership flip (OnPhase abort: the
// coordinator holds no state of its own, so an abort models a process
// death exactly); two racing coordinators on other replicas then Heal
// concurrently. It verifies:
//
//   - zero lost acked commands: for every key, the converged value's
//     sequence number is at least the last acked write's — including
//     keys whose slots migrated mid-run;
//   - no duplicated execution: a fenced command is never applied, so
//     the per-key sequence read back never regresses (a stale
//     re-execution would), and no replica executes a timestamp twice;
//   - per-key linearizability across the split boundary: a
//     linearizable read at another replica observes every write acked
//     before it was issued, before, during and after migration;
//   - exactly one routing outcome: however many coordinators raced the
//     heal, every replica's table converges to the same claims, with
//     every moved slot Owned by its target at the planned generation;
//   - agreement: every replica's store serializes to identical bytes,
//     group by group, and the routing tables persisted to disk reload.
func RunSplitChurn(cfg SplitChurnConfig) (*SplitChurnResult, error) {
	if cfg.Dir == "" {
		return nil, errors.New("runner: SplitChurnConfig.Dir is required")
	}
	c, err := newCluster(clusterSpec{
		replicas: splitReplicas, groups: splitGroups, spares: splitSpares,
		tcp: true, log: logFile, dir: cfg.Dir,
		core:   core.Options{ClockTimeInterval: faultDelta, CheckpointEvery: splitCheckpointEvery},
		debugf: cfg.Debug,
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()

	// The first split's plan, computed up front from the hosts' own
	// genesis table so client keys can be placed on both sides of the
	// boundary. PlanSplit is deterministic over the same table, so this
	// matches exactly what the coordinator will fence.
	genesis := c.table()
	dst1, dst2 := types.GroupID(splitGroups), types.GroupID(splitGroups+1)
	planned, gen1, err := genesis.PlanSplit(0, dst1)
	if err != nil {
		return nil, err
	}
	moved := make(map[int]bool, len(planned))
	for _, s := range planned {
		moved[int(s)] = true
	}
	keys := make([]string, splitClients)
	for cli := range keys {
		keys[cli] = splitKeyFor(genesis, moved, cli, cli%3)
	}
	w := c.startWriters(keys, splitStep)

	res := &SplitChurnResult{}
	churnErr := func() error {
		if err := seedSlots(c, genesis, moved); err != nil {
			return err
		}
		time.Sleep(splitSettle)
		if err := crashedSplit(c, dst1, planned, gen1, res); err != nil {
			return err
		}
		time.Sleep(splitSettle)
		if err := cleanSplit(c, 1, dst2, res); err != nil {
			return err
		}
		time.Sleep(splitSettle)
		return nil
	}()
	if err := w.finish(); churnErr != nil || err != nil {
		return nil, errors.Join(churnErr, err)
	}
	res.Acked, res.Resubmitted, res.Reads = w.acked.Load(), w.resubmitted.Load(), w.reads.Load()
	res.FenceStall = time.Duration(w.maxStall.Load())
	for _, r := range c.live() {
		if v := r.host.Table().Version; v > res.RouteVersion {
			res.RouteVersion = v
		}
	}

	// Agreement (the wait covers apply lag on non-proposing replicas),
	// then zero lost acked commands across the boundary: each key's
	// value in its (possibly new) owning group is at least as new as the
	// last acked write.
	if err := c.converged(splitConverge); err != nil {
		return nil, fmt.Errorf("split-churn: %w", err)
	}
	if err := w.survived(); err != nil {
		return nil, fmt.Errorf("split-churn: %w", err)
	}

	// The persisted routing tables reload to the converged claims: a
	// restarted replica would route identically.
	for _, r := range c.live() {
		saved, err := reshard.Load(r.host.Holder().Path())
		if err != nil {
			return nil, fmt.Errorf("split-churn: reload routes of replica %v: %w", r.host.ID(), err)
		}
		if saved == nil || !reflect.DeepEqual(saved.Slots, r.host.Table().Slots) {
			return nil, fmt.Errorf("split-churn: replica %v's persisted routing table does not match its live table", r.host.ID())
		}
		if err := r.host.Holder().SaveErr(); err != nil {
			return nil, fmt.Errorf("split-churn: replica %v routing-table persist error: %w", r.host.ID(), err)
		}
	}
	return res, nil
}

// seedSlots writes enough keys into the migrating range that the
// install phase needs multiple chunks — the checkpoint must carry every
// one of them across.
func seedSlots(c *cluster, genesis *reshard.Table, moved map[int]bool) error {
	seeded := 0
	for salt := 0; seeded < 2*reshard.DefaultChunkPairs; salt++ {
		key := fmt.Sprintf("seed-%d", salt)
		if !moved[genesis.SlotOf(key)] {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), splitStep)
		_, err := c.rep(0).host.Execute(ctx, key, kvstore.Put(key, []byte(key)))
		cancel()
		if err != nil {
			return fmt.Errorf("seed %q: %w", key, err)
		}
		seeded++
	}
	c.debugf("seeded %d keys into the migrating range", seeded)
	return nil
}

// crashedSplit is split 1: the coordinator on replica 0 fences and
// checkpoints, then dies before proposing a single install — the moved
// slots are frozen with no new owner — and replicas 1 and 2 heal it
// concurrently.
func crashedSplit(c *cluster, dst types.GroupID, planned []uint32, gen uint32, res *SplitChurnResult) error {
	co := c.rep(0).host.Coordinator()
	crashed := errors.New("coordinator crashed")
	co.OnPhase = func(phase string) error {
		c.debugf("split g0->g%d phase %s", dst, phase)
		if phase == reshard.PhaseInstall {
			return crashed
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), splitStep)
	_, err := co.Split(ctx, 0, dst)
	cancel()
	if !errors.Is(err, crashed) {
		return fmt.Errorf("crash-injected split returned %v, want the injected crash", err)
	}

	// The fence replicated through group 0's log, so every replica's
	// table learns the migration; wait for the healers to see it.
	deadline := time.Now().Add(splitConverge)
	for _, r := range c.live()[1:] {
		for len(r.host.Table().Migrations()) != len(planned) {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %v never observed the fence (table %v)", r.host.ID(), r.host.Table())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c.debugf("fence visible cluster-wide; %d slots frozen", len(planned))
	time.Sleep(splitSettle / 4)

	// Heal from two replicas concurrently: racing coordinators must
	// converge on exactly one routing outcome (generation-checked
	// installs make the duplicate a no-op).
	healErrs := make([]error, 2)
	healReps := make([][]*reshard.SplitReport, 2)
	var healWG sync.WaitGroup
	for i := range healErrs {
		healWG.Add(1)
		go func(i int) {
			defer healWG.Done()
			hctx, hcancel := context.WithTimeout(context.Background(), splitStep)
			defer hcancel()
			healReps[i], healErrs[i] = c.rep(types.ReplicaID(i + 1)).host.Heal(hctx)
		}(i)
	}
	healWG.Wait()
	healed := 0
	for i, rs := range healReps {
		if healErrs[i] != nil {
			return fmt.Errorf("heal on replica %d: %w", i+1, healErrs[i])
		}
		for _, r := range rs {
			c.debugf("heal on replica %d rolled forward %v->%v gen=%d slots=%d pairs=%d",
				i+1, r.From, r.To, r.Gen, r.Slots, r.Pairs)
			healed += r.Slots
			res.MovedPairs += r.Pairs
		}
	}
	if healed < len(planned) {
		return fmt.Errorf("heals rolled forward %d slots, want at least the %d frozen", healed, len(planned))
	}
	res.HealedSlots = healed
	res.Splits++

	// Exactly one routing outcome: every replica's claims converge,
	// every planned slot Owned by the target at the planned generation.
	if err := waitTables(c, planned, dst, gen); err != nil {
		return err
	}
	c.debugf("healed split converged: %v", c.table())
	return nil
}

// cleanSplit is split 2: a coordinator on replica 1 splits group src
// into the next spare under the same load, no crash.
func cleanSplit(c *cluster, src, dst types.GroupID, res *SplitChurnResult) error {
	host := c.rep(1).host
	plan, gen, err := host.Table().PlanSplit(src, dst)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), splitStep)
	rep, err := host.Split(ctx, src, dst)
	cancel()
	if err != nil {
		return fmt.Errorf("clean split g%d->g%d: %w", src, dst, err)
	}
	c.debugf("clean split %v->%v gen=%d slots=%d pairs=%d chunks=%d",
		rep.From, rep.To, rep.Gen, rep.Slots, rep.Pairs, rep.Chunks)
	if rep.Slots != len(plan) {
		return fmt.Errorf("clean split moved %d slots, planned %d", rep.Slots, len(plan))
	}
	res.MovedPairs += rep.Pairs
	res.Splits++
	return waitTables(c, plan, dst, gen)
}

// waitTables waits until every replica's routing table shows each slot
// in slots Owned by dst at generation gen and no migrations remain
// anywhere, then cross-checks that all replicas hold identical claims —
// the "exactly one routing outcome" assertion.
func waitTables(c *cluster, slots []uint32, dst types.GroupID, gen uint32) error {
	reps := c.live()
	deadline := time.Now().Add(splitConverge)
	for {
		ok := true
		var detail string
		for _, r := range reps {
			t := r.host.Table()
			for _, s := range slots {
				cl := t.Slots[s]
				if cl.Phase != reshard.Owned || cl.Owner != dst || cl.Gen != gen {
					ok = false
					detail = fmt.Sprintf("replica %v slot %d = %+v, want Owned by %v at gen %d", r.host.ID(), s, cl, dst, gen)
				}
			}
			if len(t.Migrations()) != 0 {
				ok = false
				detail = fmt.Sprintf("replica %v still shows migrations", r.host.ID())
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("split-churn: routing tables never converged: %s", detail)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range reps[1:] {
		if !reflect.DeepEqual(reps[0].host.Table().Slots, r.host.Table().Slots) {
			return fmt.Errorf("split-churn: replicas %v and %v converged to different routing claims", reps[0].host.ID(), r.host.ID())
		}
	}
	return nil
}
