package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"clockrsm/internal/rsm"
	"clockrsm/internal/stats"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// Errors returned by the operator API. They are sentinel values: match
// with errors.Is.
var (
	// ErrNotInConfig reports that this replica is outside the current
	// configuration, so it cannot replicate commands. Futures resolved
	// with it never executed anywhere — the client may fail over to a
	// configured replica and resubmit without risking duplicates.
	ErrNotInConfig = errors.New("node: replica not in the current configuration")
	// ErrReconfigured reports that a reconfiguration discarded the
	// command before it reached a majority. The protocol guarantees such
	// a command can never execute in any epoch, so resubmitting it is
	// safe.
	ErrReconfigured = errors.New("node: command discarded by a reconfiguration")
	// ErrConfigConflict reports that a competing proposal won the epoch a
	// Reconfigure targeted: the configuration changed, but not to the
	// requested member set. Re-issue against the new epoch if still
	// desired.
	ErrConfigConflict = errors.New("node: competing reconfiguration won the epoch")
	// ErrNotReconfigurable reports that the protocol bound to the node
	// has fixed membership (it does not implement rsm.Reconfigurable).
	ErrNotReconfigurable = errors.New("node: protocol does not support reconfiguration")
	// ErrBadConfig reports an invalid member set: empty, duplicated or
	// out-of-spec IDs, or fewer members than a majority of Spec (the
	// commit quorum is a majority of Spec, so a smaller configuration
	// could never commit).
	ErrBadConfig = errors.New("node: invalid configuration")
	// ErrNotRejoinable reports that the protocol bound to the node has no
	// recovery entry point (it does not implement rsm.Rejoiner).
	ErrNotRejoinable = errors.New("node: protocol does not support rejoin")
	// ErrWrongGroup reports that a command's key no longer belongs to
	// the group it was proposed on: the key's slot has migrated (or is
	// migrating) to another group. The command was NOT executed, so
	// resubmitting it at the new owner — after refreshing the routing
	// table — is safe. Concrete instances are *WrongGroupError, which
	// names the new owner; match the class with errors.Is(err,
	// ErrWrongGroup).
	ErrWrongGroup = errors.New("node: key routed to another group")
)

// WrongGroupError is the concrete error behind ErrWrongGroup: the
// fenced command's key now belongs to group To.
type WrongGroupError struct {
	To types.GroupID
}

// Error implements error.
func (e *WrongGroupError) Error() string {
	return fmt.Sprintf("node: key migrated to group %v (resubmit there)", e.To)
}

// Is matches the ErrWrongGroup sentinel.
func (e *WrongGroupError) Is(target error) bool { return target == ErrWrongGroup }

// latRingSize bounds the sampled commit-latency ring.
const latRingSize = 512

// latSampleMask subsamples proposals for latency measurement: one in
// (mask+1) admitted proposals is timed, keeping the instrumentation off
// the data hot path.
const latSampleMask = 15

// recoveryReporter is implemented by protocols that report their
// recovery counters (core.Replica), all safe from any goroutine:
//   - HeldDropped: future-epoch messages dropped by the hold buffer's
//     overflow backstop — a straggler may carry a history gap only a
//     state transfer can close;
//   - SnapRestores: catch-ups that went through a peer's shipped
//     checkpoint + tail rather than full-log replay;
//   - LinkGaps: proven holes in a peer's PREPARE stream (cumulative
//     send counters) that forced a reconfiguration to repair.
type recoveryReporter interface {
	HeldDropped() uint64
	SnapRestores() uint64
	LinkGaps() uint64
}

// confWaiter is one pending Reconfigure: its future resolves when the
// decision for the targeted epoch is installed — with success if the
// installed member set matches the target, ErrConfigConflict otherwise.
type confWaiter struct {
	epoch  types.Epoch
	target []types.ReplicaID // canonical: sorted, deduplicated
	fut    *Future
}

// LatencySummary summarizes the sampled commit latency of recent
// proposals (admission to resolution).
type LatencySummary struct {
	Samples int
	Mean    time.Duration
	P95     time.Duration
	Max     time.Duration
}

// GroupStatus is a point-in-time snapshot of one replication group on a
// node: the installed configuration, client-API pressure, and sampled
// commit latency. Reading it never touches the event loop.
type GroupStatus struct {
	Group    types.GroupID
	Epoch    types.Epoch
	Members  []types.ReplicaID
	InConfig bool
	// InFlight is the number of admitted, unresolved data proposals
	// (window slots in use); Proposed counts every data-proposal
	// admission since start. Control-plane futures (Reconfigure) are
	// excluded from both.
	InFlight int
	Proposed uint64
	// Resolved counts futures resolved for any reason (results, errors,
	// sweeps), control plane included.
	Resolved      uint64
	CommitLatency LatencySummary
	// ReadWatermark is the executed watermark local reads are served
	// from (zero when the protocol exposes none — reads replicate), and
	// ReadAge is how far the clock was past it at snapshot time: the
	// staleness bound a Stale read issued now would observe.
	ReadWatermark int64
	ReadAge       time.Duration
	// ReadsLocal counts reads served from local state (all tiers);
	// ReadsParked counts how many of them had to wait for the watermark
	// to cover their capture time or session token.
	ReadsLocal  uint64
	ReadsParked uint64
	// HeldDropped counts future-epoch protocol messages discarded on
	// hold-buffer overflow. Non-zero means this replica may have a
	// history gap only a state transfer can close (see core.Replica).
	HeldDropped uint64
	// LinkGaps counts proven message losses on incoming PREPARE streams
	// (detected from the cumulative send counters every hot message
	// carries), each of which forced a self-repair rejoin. Non-zero under
	// a healthy network means the transport is silently dropping traffic.
	LinkGaps uint64
	// SnapRestores counts state-machine restores from a peer's shipped
	// snapshot: catch-ups that went through checkpoint + tail transfer
	// instead of full-log replay.
	SnapRestores uint64
	// FsyncMode names the stable log's fsync policy ("always", "batch",
	// "off"), empty when the log does not report one (memory logs); Log
	// carries its append/fsync counters.
	FsyncMode string
	Log       storage.LogStats
	// Slots is the number of routing-table slots this group owns and
	// MigratingOut how many of them it is currently fencing away to
	// another group, both from the host's routing table.
	Slots        int
	MigratingOut int
}

// status snapshots this group's control-plane state for Host.Status.
// Lock-free reads of the config view and counters; the latency summary
// copies the sampled ring under a mutex nothing on the hot path holds.
// Epoch, Members and InConfig come from one view load, so the triple is
// never torn across a concurrent reconfiguration.
func (n *Node) status() GroupStatus {
	st := GroupStatus{
		Group:         n.group,
		InFlight:      len(n.window),
		Proposed:      n.proposed.Load(),
		Resolved:      n.resolved.Load(),
		CommitLatency: n.latencySummary(),
		ReadsLocal:    n.readsLocal.Load(),
		ReadsParked:   n.readsParked.Load(),
	}
	if w := n.watermark.Load(); w > 0 {
		st.ReadWatermark = w
		st.ReadAge = time.Duration(n.clk.Now() - w)
	}
	if r := n.recovery; r != nil {
		st.HeldDropped = r.HeldDropped()
		st.SnapRestores = r.SnapRestores()
		st.LinkGaps = r.LinkGaps()
	}
	if sr, ok := n.log.(storage.StatsReporter); ok {
		st.FsyncMode = sr.Mode().String()
		st.Log = sr.Stats()
	}
	v := n.view.Load()
	st.Epoch, st.InConfig = v.Epoch, v.InConfig
	st.Members = append([]types.ReplicaID(nil), v.Members...)
	return st
}

// Reconfigure proposes replacing the group's configuration with members
// at the next epoch, through the same future machinery as data
// commands: the returned Future resolves once the targeted epoch's
// decision is installed — with the canonical member list as its Result
// value on success, or ErrConfigConflict if a competing proposal
// (another operator, the failure detector) won the epoch. A Reconfigure
// to the configuration already in force succeeds immediately without
// consuming an epoch.
//
// Reconfiguration bypasses the in-flight window, the Proposed counter
// and the latency sampling deliberately: a stalled group fills the
// window with proposals that only a reconfiguration can unblock, the
// repair operation must not queue behind the work it is meant to
// unstick, and its barrier duration is not a data commit latency.
// Host.Stop still sweeps the future.
//
// members must be non-empty IDs from Spec, without duplicates, and at
// least a majority of Spec (the commit quorum); otherwise ErrBadConfig.
func (n *Node) Reconfigure(ctx context.Context, members []types.ReplicaID) (*Future, error) {
	target, err := n.canonicalMembers(members)
	if err != nil {
		return nil, err
	}
	if _, ok := n.proto.(rsm.Reconfigurable); !ok {
		return nil, ErrNotReconfigurable
	}
	if ctx.Err() != nil {
		return nil, ErrCanceled
	}
	f := newFuture(n, nil, true)
	if err := n.reg.add(&f.pending); err != nil {
		return nil, err
	}
	if !n.enqueue(event{fn: func() { n.execReconfigure(f, target) }}) {
		f.resolve(types.Result{}, ErrStopped)
		return nil, ErrStopped
	}
	return f, nil
}

// Rejoin asks a removed or lagging replica to force itself back into
// the configuration: the protocol proposes a reconfiguration to a
// strictly newer epoch including itself, learning missed epochs and
// fetching missed history (checkpoint + tail) along the way. It is for
// operators and harnesses: a replica restarted from its stable log
// rejoins by itself. The call is asynchronous, self-retrying and
// idempotent (a call while a rejoin is in flight joins it); observe
// progress via Host.Status (Epoch advancing, InConfig true).
func (n *Node) Rejoin() error {
	rj, ok := n.proto.(rsm.Rejoiner)
	if !ok {
		return ErrNotRejoinable
	}
	if !n.enqueue(event{fn: rj.Rejoin}) {
		return ErrStopped
	}
	return nil
}

// execReconfigure runs on the event loop: it registers the epoch
// barrier and hands the proposal to the protocol.
func (n *Node) execReconfigure(f *Future, target []types.ReplicaID) {
	if f.resolved() {
		return
	}
	v := n.recon.ConfigView()
	if membersEqual(canonical(v.Members), target) {
		f.resolve(types.Result{Value: memberBytes(target)}, nil)
		return
	}
	n.confWaiters = append(n.confWaiters, &confWaiter{epoch: v.Epoch + 1, target: target, fut: f})
	n.recon.Reconfigure(target)
}

// onConfigEvent is the protocol's configuration listener; it runs on the
// event loop. It refreshes the lock-free status view, fails futures for
// commands the protocol discarded, and resolves Reconfigure barriers.
func (n *Node) onConfigEvent(ev rsm.ConfigEvent) {
	v := ev.View
	n.view.Store(&v)
	n.inConfigLoop = v.InConfig

	if !v.InConfig {
		// This replica left the configuration. Every remaining waiter's
		// command either already executed (its future resolved before this
		// event) or was pruned by the reconfiguration and can never
		// execute — fail them all so callers fail over instead of parking
		// until their deadline.
		for seq, f := range n.waiters {
			delete(n.waiters, seq)
			f.resolve(types.Result{}, ErrNotInConfig)
		}
		// Parked reads share the contract: a removed replica's watermark
		// is frozen, so a read parked for it would wait forever. The
		// client fails over and reads elsewhere.
		n.failParkedReads(ErrNotInConfig)
	} else {
		for _, id := range ev.Dropped {
			if f, ok := n.waiters[id.Seq]; ok {
				delete(n.waiters, id.Seq)
				f.resolve(types.Result{}, ErrReconfigured)
			}
		}
	}

	if len(n.confWaiters) == 0 {
		return
	}
	installed := canonical(v.Members)
	kept := n.confWaiters[:0]
	for _, w := range n.confWaiters {
		switch {
		case w.fut.resolved(): // canceled or swept; drop the entry
		case v.Epoch >= w.epoch:
			if membersEqual(installed, w.target) {
				w.fut.resolve(types.Result{Value: memberBytes(w.target)}, nil)
			} else {
				w.fut.resolve(types.Result{}, ErrConfigConflict)
			}
		default:
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(n.confWaiters); i++ {
		n.confWaiters[i] = nil
	}
	n.confWaiters = kept
}

// canonicalMembers validates and canonicalizes an operator-supplied
// member set against Spec.
func (n *Node) canonicalMembers(members []types.ReplicaID) ([]types.ReplicaID, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: empty member set", ErrBadConfig)
	}
	inSpec := make(map[types.ReplicaID]bool, len(n.spec))
	for _, id := range n.spec {
		inSpec[id] = true
	}
	seen := make(map[types.ReplicaID]bool, len(members))
	for _, id := range members {
		if !inSpec[id] {
			return nil, fmt.Errorf("%w: %v is not in the system specification %v", ErrBadConfig, id, n.spec)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate member %v", ErrBadConfig, id)
		}
		seen[id] = true
	}
	if maj := types.Majority(len(n.spec)); len(members) < maj {
		return nil, fmt.Errorf("%w: %d members, need at least a majority of Spec (%d of %d)",
			ErrBadConfig, len(members), maj, len(n.spec))
	}
	return canonical(members), nil
}

// canonical returns a sorted copy of a member set.
func canonical(members []types.ReplicaID) []types.ReplicaID {
	out := append([]types.ReplicaID(nil), members...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// membersEqual compares two canonical member sets.
func membersEqual(a, b []types.ReplicaID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memberBytes renders a canonical member set as the Result value of a
// successful Reconfigure ("r0,r1,r2").
func memberBytes(members []types.ReplicaID) []byte {
	return []byte(MemberString(members))
}

// MemberString renders a member set as a comma-separated list of replica
// IDs ("r0,r1,r2").
func MemberString(members []types.ReplicaID) string {
	s := ""
	for i, id := range members {
		if i > 0 {
			s += ","
		}
		s += id.String()
	}
	return s
}

// recordLatency folds one sampled commit latency into the ring.
func (n *Node) recordLatency(d time.Duration) {
	n.latMu.Lock()
	if len(n.lat) < latRingSize {
		n.lat = append(n.lat, d)
	} else {
		n.lat[n.latPos] = d
		n.latPos = (n.latPos + 1) % latRingSize
	}
	n.latMu.Unlock()
}

// latencySummary summarizes the sampled ring.
func (n *Node) latencySummary() LatencySummary {
	n.latMu.Lock()
	vals := append([]time.Duration(nil), n.lat...)
	n.latMu.Unlock()
	if len(vals) == 0 {
		return LatencySummary{}
	}
	var s stats.Sample
	s.AddAll(vals)
	return LatencySummary{Samples: s.Count(), Mean: s.Mean(), P95: s.P95(), Max: s.Max()}
}
