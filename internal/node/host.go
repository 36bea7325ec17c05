package node

import (
	"context"
	"fmt"
	"reflect"
	"strings"

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
	// NewLog constructs group g's stable log; nil (or a nil result)
	// gives the group its own in-memory log.
	NewLog func(g types.GroupID) storage.Log
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
// Wire a Host group by group: Bind each group's application, attach a
// protocol with Group(g).SetProtocol, then Start the host once. The
// Host is the client surface (Execute, ProposeKey, ReadKey, Status) and
// owns the lifecycle: Stop ends every group at once.
type Host struct {
	id    types.ReplicaID
	tr    transport.GroupTransport
	nodes []*Node
	// sched owns every group's event loop and timer (see Stop).
	sched *sched
	// faultStats reports injected-fault counters for Status; nil
	// outside chaos runs (see HostOptions.FaultStats).
	faultStats func() map[string]uint64
	// holder owns the live routing table, the source of truth for
	// key→group dispatch.
	holder *reshard.Holder
}

// NewHost creates a host for replica id over tr with opts.Groups
// groups. tr must implement transport.GroupTransport and
// transport.GroupBroadcaster, configured for at least that many groups:
// every message a group sends carries its group tag.
func NewHost(id types.ReplicaID, spec []types.ReplicaID, tr transport.Transport, opts HostOptions) (*Host, error) {
	g := opts.Groups
	if g <= 0 {
		g = 1
	}
	gt, isGT := tr.(transport.GroupTransport)
	gb, isGB := tr.(transport.GroupBroadcaster)
	if !isGT || !isGB {
		return nil, fmt.Errorf("host %v: transport %T does not multiplex groups", id, tr)
	}
	if gt.Groups() < g {
		return nil, fmt.Errorf("host %v: transport configured for %d groups, host wants %d", id, gt.Groups(), g)
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
		tr:         gt,
		sched:      newSched(),
		holder:     reshard.NewHolder(tbl, opts.RoutesPath),
		faultStats: opts.FaultStats,
	}
	for i := 0; i < g; i++ {
		gid := types.GroupID(i)
		var lg storage.Log
		if opts.NewLog != nil {
			lg = opts.NewLog(gid)
		}
		if lg == nil {
			lg = storage.NewMemLog()
		}
		n := &Node{
			id:      id,
			spec:    append([]types.ReplicaID(nil), spec...),
			clk:     clk,
			log:     lg,
			group:   gid,
			gt:      gt,
			gbcast:  gb,
			sched:   h.sched,
			window:  make(chan struct{}, maxInFlight),
			waiters: make(map[uint64]*Future),
			events:  make(chan event, queueLen),
		}
		n.view.Store(&rsm.ConfigView{Members: n.spec, InConfig: true})
		gt.SetGroupHandler(gid, func(from types.ReplicaID, m msg.Message) {
			if !n.enqueue(event{m: m, from: from}) {
				msg.Recycle(m) // group stopped: reclaim pooled storage
			}
		})
		h.nodes = append(h.nodes, n)
	}
	if pw, ok := tr.(transport.PeerWatcher); ok {
		pw.WatchPeers(h.peerDown)
	}
	return h, nil
}

// peerDowner is a protocol that acts on peer-down reports (core.Replica).
type peerDowner interface{ PeerDown(k types.ReplicaID) }

// peerDown fans a transport.PeerWatcher report out as one loop event per group.
func (h *Host) peerDown(k types.ReplicaID) {
	for _, n := range h.nodes {
		if d := n.downer; d != nil {
			n.enqueue(event{fn: func() { d.PeerDown(k) }})
		}
	}
}

// ID returns the replica identity shared by every group.
func (h *Host) ID() types.ReplicaID { return h.id }

// Groups returns the number of groups hosted.
func (h *Host) Groups() int { return len(h.nodes) }

// Group returns group g's node — the rsm.Env to construct its protocol
// with, and the handle for SetProtocol, Do, Reconfigure and Rejoin on
// that group.
func (h *Host) Group(g types.GroupID) *Node { return h.nodes[g] }

// ProposeKey proposes an opaque state-machine payload on the
// replication group the routing table assigns key to, and returns a
// Future for its execution result. It is the client entry point of the
// replication stack: the group's event loop allocates the command ID,
// registers the completion, and hands the command to the protocol, so
// no caller ever touches protocol state across goroutines. The future
// fails with ErrWrongGroup if the key's slot migrates before the
// command executes; Execute wraps this with the retry loop front ends
// want.
//
// Backpressure: a group admits a proposal only while fewer than
// maxInFlight of its proposals are unresolved. When the window is full,
// ProposeKey blocks until a slot frees, ctx is done (ErrCanceled) or
// the host stops (ErrStopped).
//
// Batching: every proposal the event loop drains in one batch turn
// runs inside that turn's BeginBatch/EndBatch bracket, so one coalesced
// PREPARE broadcast (one encode, one frame per link) covers all of
// them — the paper's batching (Section VI-D), with no knob: the deeper
// the queue under load, the wider the batch.
//
// ctx governs admission and can later cancel the wait through
// Future.Wait; it does not cancel a command already replicating. The
// result's CommandID is unique within the key's group; sibling groups
// mint their own sequences, so cross-group consumers key by (group, ID).
func (h *Host) ProposeKey(ctx context.Context, key string, payload []byte) (*Future, error) {
	return h.nodes[h.holder.Load().Group(key)].propose(ctx, payload)
}

// Bind connects group g's application to that group's proposal futures
// and read path, wrapping its state machine with the resharding layer
// first: control commands (fence, install) replicated in g's log mutate
// routing state, and data commands for migrated slots turn into typed
// redirects instead of applies. Checkpoints carry the route state
// alongside the data it protects. app.SM must be a reshard.Store; Bind
// refuses anything else, naming the methods it lacks. Bind must precede
// Start.
func (h *Host) Bind(g types.GroupID, app *rsm.App) error {
	st, ok := app.SM.(reshard.Store)
	if !ok {
		return fmt.Errorf("host %v: group %v state machine %T is not a reshard.Store: it lacks %s",
			h.id, g, app.SM, strings.Join(missingMethods(app.SM), ", "))
	}
	n := h.nodes[g]
	n.sm = reshard.Wrap(g, st, h.holder)
	app.SM = n.sm
	// Execution results of locally originated commands resolve the
	// matching Future on the event loop; an OnReply already installed
	// on app keeps firing after the future resolves.
	prev := app.OnReply
	app.OnReply = func(res types.Result) {
		n.completeProposal(res)
		if prev != nil {
			prev(res)
		}
	}
	return nil
}

// missingMethods names the reshard.Store methods sm lacks, or has with
// the wrong signature.
func missingMethods(sm rsm.StateMachine) []string {
	want := reflect.TypeOf((*reshard.Store)(nil)).Elem()
	have := reflect.ValueOf(sm)
	var missing []string
	for i := 0; i < want.NumMethod(); i++ {
		m := want.Method(i)
		var f reflect.Value
		if have.IsValid() {
			f = have.MethodByName(m.Name)
		}
		if !f.IsValid() || f.Type() != m.Type {
			missing = append(missing, m.Name)
		}
	}
	return missing
}

// Start launches every group's event loop, then the shared transport,
// then starts every protocol on its loop. Every group must have a
// protocol attached. A transport that fails to start stops the host.
func (h *Host) Start() error {
	for _, n := range h.nodes {
		if n.proto == nil {
			return fmt.Errorf("host %v: group %v has no protocol", h.id, n.group)
		}
	}
	for _, n := range h.nodes {
		n.wire()
		h.sched.spawn(n.run)
	}
	if err := h.tr.Start(); err != nil {
		h.Stop()
		return err
	}
	for _, n := range h.nodes {
		n.enqueue(event{fn: n.proto.Start})
	}
	return nil
}

// Stop ends the host: every group refuses new operations, every event
// loop returns and every armed timer is cancelled, every group's
// unresolved futures and reads fail with ErrStopped, and the shared
// transport closes. Idempotent.
func (h *Host) Stop() {
	for _, n := range h.nodes {
		n.reg.refuse()
	}
	h.sched.stop()
	for _, n := range h.nodes {
		n.reg.sweep()
	}
	h.tr.Close()
}
