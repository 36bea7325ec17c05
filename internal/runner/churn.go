package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/types"
)

// ChurnConfig describes a membership-churn experiment: a multi-group
// cluster serving a closed-loop client population while an operator
// grows and shrinks the configuration through Host.ReconfigureAll — the
// kvctl-reconf deployment story, asserted end to end. All five Spec
// processes stay up throughout; membership moves between memberBase and
// the full Spec.
type ChurnConfig struct {
	// Clients is the closed-loop client count (default 6).
	Clients int
	// Cycles is how many grow+shrink rounds run under load (default 1).
	Cycles int
	// Settle is how long load runs between reconfigurations (default
	// 150 ms).
	Settle time.Duration
}

const (
	// memberSpec is the number of running replica processes; the grown
	// configuration is all of them.
	memberSpec   = 5
	memberGroups = 2
	// memberStep bounds each reconfiguration and each proposal wait.
	memberStep = 20 * time.Second
	// memberPayload is the command payload size in bytes.
	memberPayload = 32
)

// memberBase is the steady-state configuration; clients propose only at
// these replicas, which stay configured throughout.
var memberBase = []types.ReplicaID{0, 1, 2}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Clients == 0 {
		c.Clients = 6
	}
	if c.Cycles <= 0 {
		c.Cycles = 1
	}
	if c.Settle == 0 {
		c.Settle = 150 * time.Millisecond
	}
	return c
}

// ChurnResult reports one membership-churn run that passed all
// correctness assertions.
type ChurnResult struct {
	// Committed is the number of client commands whose futures resolved
	// with a result — each executed exactly once.
	Committed uint64
	// Resubmitted counts proposals retried after ErrReconfigured: the
	// commands a reconfiguration provably discarded.
	Resubmitted uint64
	// Reconfigurations is the number of ReconfigureAll calls driven
	// (1 initial shrink + 2 per cycle).
	Reconfigurations int
	// FinalEpoch and FinalMembers describe the configuration every group
	// on every Base replica converged to.
	FinalEpoch   types.Epoch
	FinalMembers []types.ReplicaID
}

// memberLedger is the membership churn's own bookkeeping: what every
// replica executed, in order, and what the clients saw commit.
type memberLedger struct {
	mu     sync.Mutex
	orders [memberSpec][memberGroups][]types.CommandID // [replica][group]
	okIDs  [memberGroups]map[types.CommandID]bool
}

// landed reports whether every base replica has executed as many
// commands as were committed, per group.
func (l *memberLedger) landed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for g := range l.okIDs {
		for _, rep := range memberBase {
			if len(l.orders[rep][g]) != len(l.okIDs[g]) {
				return false
			}
		}
	}
	return true
}

// verify checks agreement on the execution order across base replicas,
// that no command executed twice, and that the executed set is exactly
// the committed set. The lock is held for the call only: trailing
// event loops (removed replicas catching up via state transfer) still
// need it in onCommit to make progress afterwards.
func (l *memberLedger) verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for g := range l.okIDs {
		ref := l.orders[memberBase[0]][g]
		for _, rep := range memberBase[1:] {
			ord := l.orders[rep][g]
			if len(ord) != len(ref) {
				return fmt.Errorf("group %d: replica %v executed %d commands, replica %v executed %d",
					g, rep, len(ord), memberBase[0], len(ref))
			}
			for j := range ord {
				if ord[j] != ref[j] {
					return fmt.Errorf("group %d: execution order diverges at %d", g, j)
				}
			}
		}
		seen := make(map[types.CommandID]bool, len(ref))
		for _, cid := range ref {
			if seen[cid] {
				return fmt.Errorf("group %d: command %v executed twice (duplicated command)", g, cid)
			}
			seen[cid] = true
			if !l.okIDs[g][cid] {
				return fmt.Errorf("group %d: executed command %v was never reported committed", g, cid)
			}
		}
		for cid := range l.okIDs[g] {
			if !seen[cid] {
				return fmt.Errorf("group %d: committed command %v never executed (lost command)", g, cid)
			}
		}
	}
	return nil
}

// RunMembershipChurn stands up a 5-replica, 2-group cluster, shrinks
// it to memberBase, then — under closed-loop load at those replicas —
// grows it to the full Spec and back Cycles times via
// Host.ReconfigureAll. It verifies the operator-API contract end to
// end:
//
//   - zero lost commands: every proposal eventually commits; proposals
//     a reconfiguration discards fail with node.ErrReconfigured and are
//     resubmitted by the client;
//   - zero duplicated commands: no command ID executes twice in its
//     group, and the executed set equals the committed set exactly;
//   - agreement: every base replica executes every group's commands in
//     the same order, and ends with byte-identical stores
//     (cluster.converged);
//   - atomicity: after the final shrink, every group on every base
//     replica holds the same configuration and epoch, and a removed
//     replica fails proposals with node.ErrNotInConfig.
func RunMembershipChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg = cfg.withDefaults()
	led := &memberLedger{}
	for g := range led.okIDs {
		led.okIDs[g] = make(map[types.CommandID]bool)
	}
	c, err := newCluster(clusterSpec{
		replicas: memberSpec, groups: memberGroups,
		core: core.Options{ClockTimeInterval: faultDelta},
		onCommit: func(id types.ReplicaID, g types.GroupID, cmd types.Command) {
			led.mu.Lock()
			led.orders[id][g] = append(led.orders[id][g], cmd.ID)
			led.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()
	tbl := c.table()

	all := c.ids
	reconf := func(members []types.ReplicaID) error {
		ctx, cancel := context.WithTimeout(context.Background(), memberStep)
		defer cancel()
		return c.rep(memberBase[0]).host.ReconfigureAll(ctx, members)
	}

	// Shrink the freshly started full-Spec cluster down to the base
	// before load starts: the "live 3-replica cluster" the churn then
	// grows.
	res := &ChurnResult{}
	if err := reconf(memberBase); err != nil {
		return nil, fmt.Errorf("initial shrink to %v: %w", memberBase, err)
	}
	res.Reconfigurations++

	// Closed-loop clients at the base replicas. Every proposal is
	// retried until it commits; ErrReconfigured (the command provably
	// never executed) is the only tolerated failure.
	var resubmitted atomic.Uint64
	load := newClosedLoop()
	for cli := 0; cli < cfg.Clients; cli++ {
		seq := 0
		key, g := clientKey(tbl, cli)
		host := c.rep(memberBase[cli%len(memberBase)]).host
		load.client(nil, func() error {
			payload := kvstore.Put(key, append([]byte(fmt.Sprintf("c%d-%d-", cli, seq)), make([]byte, memberPayload)...))
			seq++
			for {
				ctx, cancel := context.WithTimeout(context.Background(), memberStep)
				fut, err := host.ProposeKey(ctx, key, payload)
				var r types.Result
				if err == nil {
					r, err = fut.Wait(ctx)
				}
				cancel()
				switch {
				case err == nil:
					led.mu.Lock()
					led.okIDs[g][r.ID] = true
					led.mu.Unlock()
					return nil
				case errors.Is(err, node.ErrReconfigured):
					resubmitted.Add(1) // provably never executed: safe to resubmit
				default:
					return fmt.Errorf("client %d seq %d: %w", cli, seq-1, err)
				}
			}
		})
	}

	// The churn itself: grow to the full Spec and shrink back to the
	// base, under load, Cycles times.
	churnErr := func() error {
		time.Sleep(cfg.Settle)
		for cycle := 0; cycle < cfg.Cycles; cycle++ {
			if err := reconf(all); err != nil {
				return fmt.Errorf("cycle %d grow to %v: %w", cycle, all, err)
			}
			res.Reconfigurations++
			time.Sleep(cfg.Settle)
			if err := reconf(memberBase); err != nil {
				return fmt.Errorf("cycle %d shrink to %v: %w", cycle, memberBase, err)
			}
			res.Reconfigurations++
			time.Sleep(cfg.Settle)
		}
		return nil
	}()
	if err := load.finish(); churnErr != nil || err != nil {
		return nil, errors.Join(churnErr, err)
	}
	led.mu.Lock()
	for g := range led.okIDs {
		res.Committed += uint64(len(led.okIDs[g]))
	}
	led.mu.Unlock()
	res.Resubmitted = resubmitted.Load()

	// Trailing commits land on every base replica before verification.
	for deadline := time.Now().Add(10 * time.Second); !led.landed(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("churn: executions never converged to the committed set (lost or phantom commands):%s", c.dump())
		}
	}
	if err := led.verify(); err != nil {
		return nil, err
	}
	if err := c.converged(10 * time.Second); err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}

	// Atomicity: every group on every base replica landed on the same
	// final configuration and epoch, and that configuration is the base.
	// Epochs are compared across groups and replicas rather than against
	// the ReconfigureAll count: no-op reconfigurations consume no epoch
	// and conflict retries (e.g. a concurrent failure-detector epoch)
	// consume extra ones.
	first := c.rep(memberBase[0]).host.Status().Groups[0]
	wantMembers := node.MemberString(memberBase)
	for _, rep := range memberBase {
		for _, g := range c.rep(rep).host.Status().Groups {
			if g.Epoch != first.Epoch || node.MemberString(g.Members) != wantMembers || !g.InConfig {
				return nil, fmt.Errorf("replica %v group %v: epoch=%d members=%s in=%t, want epoch=%d members=%s in=true",
					rep, g.Group, g.Epoch, node.MemberString(g.Members), g.InConfig, first.Epoch, wantMembers)
			}
		}
	}
	res.FinalEpoch, res.FinalMembers = first.Epoch, first.Members

	// A replica outside the final configuration refuses proposals with
	// the typed error instead of parking them.
	removed := all[len(memberBase)]
	ctx, cancel := context.WithTimeout(context.Background(), memberStep)
	defer cancel()
	fut, err := c.rep(removed).host.ProposeKey(ctx, "probe", kvstore.Put("probe", []byte("x")))
	if err == nil {
		_, err = fut.Wait(ctx)
	}
	if !errors.Is(err, node.ErrNotInConfig) {
		return nil, fmt.Errorf("proposal at removed replica %v: err = %v, want node.ErrNotInConfig", removed, err)
	}

	// The future-epoch hold buffer never overflowed: a dropped held
	// message could reopen a straggler history gap silently.
	if err := c.heldDropped(); err != nil {
		return nil, err
	}
	return res, nil
}
