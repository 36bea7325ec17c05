package node

import (
	"context"
	"fmt"
	"runtime"

	"clockrsm/internal/clock"
	"clockrsm/internal/msg"
	"clockrsm/internal/reshard"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// HostOptions configure a multi-group Host.
type HostOptions struct {
	// Groups is the number of independent replication groups this node
	// hosts (default 1).
	Groups int
	// Clock is the physical clock shared by every group; nil uses a
	// monotonic wrapper over the system clock. One clock for all groups
	// keeps cross-group timestamps comparable on one node and mirrors
	// the paper's single clock_gettime source per machine.
	Clock clock.Clock
	// NewLog constructs group g's stable log; nil gives every group its
	// own in-memory log.
	NewLog func(g types.GroupID) storage.Log
	// QueueLen is the per-group event queue capacity (default 8192).
	QueueLen int
	// BatchLimit caps events drained per loop turn per group (default
	// 256).
	BatchLimit int
	// MaxInFlight is each group's backpressure window: proposals
	// admitted by Propose but not yet resolved (default 1024).
	MaxInFlight int
	// FailFast makes Propose return ErrOverloaded on a full window
	// instead of blocking.
	FailFast bool
	// SubmitBatch is each group's client-side batching width (default
	// 1): up to this many buffered proposals flush into one event-loop
	// turn, sharing one coalesced PREPARE broadcast (Section VI-D).
	SubmitBatch int
	// PinGroups pins each group's event loop to its own CPU (group g to
	// CPU g mod NumCPU), isolating the loops from scheduler migration on
	// multi-core hosts. Linux only; elsewhere loops are thread-locked
	// but not pinned.
	PinGroups bool
	// Table is the initial routing table. Nil derives the legacy
	// layout from Groups (slot s → group s mod Groups), which places
	// every key at shard.Hash(key) mod Groups. A table routing to fewer
	// groups than Groups leaves the extras as spares a split can
	// activate.
	Table *reshard.Table
	// RoutesPath, when non-empty, persists the routing table there on
	// every change, and is where a restarted host resumes routing from
	// (see reshard.Load).
	RoutesPath string
	// FaultStats, when set, reports this replica's injected-fault
	// counters (chaos.Engine.ReplicaCounts) and is surfaced verbatim in
	// HostStatus.Faults and the kvserver STATUS output, so an operator
	// can see which scheduled faults actually fired. Must be safe from
	// any goroutine. Nil outside fault-injection runs.
	FaultStats func() map[string]uint64
}

// Host runs G independent replication groups on one node. Each group
// is a full protocol instance with its own single-goroutine event
// loop, stable log and state machine; all groups share one transport
// endpoint (and therefore one connection set), one physical clock and
// one replica identity. Traffic is demultiplexed by the transport's
// group tag, so adding groups adds event loops — and, on multi-core
// hardware, parallel commit cascades — without adding sockets.
//
// Wire a Host like a set of Nodes: attach a protocol to every group
// with Group(g).SetProtocol, then Start the host once.
type Host struct {
	id    types.ReplicaID
	tr    transport.Transport
	nodes []*Node
	// faultStats reports injected-fault counters for Status; nil
	// outside chaos runs (see HostOptions.FaultStats).
	faultStats func() map[string]uint64
	// holder owns the live routing table (the source of truth for
	// key→group dispatch); shardSMs are the per-group resharding
	// wrappers Bind installs around the application state machines.
	holder   *reshard.Holder
	shardSMs []*reshard.SM
}

// NewHost creates a host for replica id over tr with opts.Groups
// groups. tr must implement transport.GroupTransport when more than
// one group is requested.
func NewHost(id types.ReplicaID, spec []types.ReplicaID, tr transport.Transport, opts HostOptions) (*Host, error) {
	g := opts.Groups
	if g <= 0 {
		g = 1
	}
	gt, isGT := tr.(transport.GroupTransport)
	if g > 1 {
		if !isGT {
			return nil, fmt.Errorf("host %v: transport %T does not multiplex groups", id, tr)
		}
		if gt.Groups() < g {
			return nil, fmt.Errorf("host %v: transport configured for %d groups, host wants %d", id, gt.Groups(), g)
		}
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewMonotonic(clock.System{})
	}
	tbl := opts.Table
	if tbl == nil {
		tbl = reshard.Legacy(g)
	}
	if tg := tbl.Groups(); tg > g {
		return nil, fmt.Errorf("host %v: routing table uses %d groups, host only hosts %d", id, tg, g)
	}
	h := &Host{
		id:         id,
		tr:         tr,
		holder:     reshard.NewHolder(tbl, opts.RoutesPath),
		shardSMs:   make([]*reshard.SM, g),
		faultStats: opts.FaultStats,
	}
	for i := 0; i < g; i++ {
		gid := types.GroupID(i)
		var lg storage.Log
		if opts.NewLog != nil {
			lg = opts.NewLog(gid)
		}
		pin := 0
		if opts.PinGroups {
			pin = i%runtime.NumCPU() + 1
		}
		n := newNode(id, spec, tr, gid, true, Options{
			Clock:       clk,
			Log:         lg,
			QueueLen:    opts.QueueLen,
			BatchLimit:  opts.BatchLimit,
			MaxInFlight: opts.MaxInFlight,
			FailFast:    opts.FailFast,
			SubmitBatch: opts.SubmitBatch,
			PinCPU:      pin,
		})
		if isGT {
			gt.SetGroupHandler(gid, func(from types.ReplicaID, m msg.Message) {
				if !n.enqueue(event{m: m, from: from}) {
					msg.Recycle(m) // group stopped: reclaim pooled storage
				}
			})
		} else {
			tr.SetHandler(func(from types.ReplicaID, m msg.Message) {
				if !n.enqueue(event{m: m, from: from}) {
					msg.Recycle(m) // group stopped: reclaim pooled storage
				}
			})
		}
		h.nodes = append(h.nodes, n)
	}
	return h, nil
}

// ID returns the replica identity shared by every group.
func (h *Host) ID() types.ReplicaID { return h.id }

// Groups returns the number of groups hosted.
func (h *Host) Groups() int { return len(h.nodes) }

// Group returns group g's node — an rsm.Env for protocol construction
// and the handle for Propose/Do against that group.
func (h *Host) Group(g types.GroupID) *Node { return h.nodes[g] }

// ProposeKey proposes an opaque payload on the replication group the
// routing table assigns key to. The future fails with ErrWrongGroup if
// the key's slot migrates before the command executes; Execute wraps
// this with the retry loop front ends want.
func (h *Host) ProposeKey(ctx context.Context, key string, payload []byte) (*Future, error) {
	return h.nodes[h.holder.Load().Group(key)].Propose(ctx, payload)
}

// Bind connects group g's application to that group's proposal futures
// (see Node.Bind), wrapping its state machine with the resharding
// layer first: control commands (fence, install) replicated in g's log
// mutate routing state, and data commands for migrated slots turn into
// typed redirects instead of applies. The wrapper forwards the inner
// machine's query and snapshot capabilities, so reads and checkpoints
// keep working — checkpoints now carry the route state alongside the
// data it protects.
func (h *Host) Bind(g types.GroupID, app *rsm.App) {
	wrapped := reshard.Wrap(g, app.SM, h.holder)
	h.shardSMs[g] = reshard.Base(wrapped)
	app.SM = wrapped
	h.nodes[g].Bind(app)
}

// Start launches every group's event loop, then the shared transport,
// then starts every protocol on its loop. Every group must have a
// protocol attached.
func (h *Host) Start() error {
	for _, n := range h.nodes {
		if n.proto == nil {
			return fmt.Errorf("host %v: group %v has no protocol", h.id, n.group)
		}
	}
	started := 0
	for _, n := range h.nodes {
		if err := n.startLoop(); err != nil {
			for _, m := range h.nodes[:started] {
				m.stopLoop()
			}
			return err
		}
		started++
	}
	if err := h.tr.Start(); err != nil {
		for _, n := range h.nodes {
			n.stopLoop()
		}
		return err
	}
	for _, n := range h.nodes {
		n.enqueue(event{fn: n.proto.Start})
	}
	return nil
}

// Stop terminates every group's event loop and closes the shared
// transport. It is idempotent.
func (h *Host) Stop() {
	for _, n := range h.nodes {
		n.stopLoop()
	}
	h.tr.Close()
}
