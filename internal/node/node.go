// Package node is the real runtime for replicas. A Host (NewHost) runs
// G independent replication groups over one shared transport, clock
// and connection set (see internal/reshard for the key→group routing
// table), and is the only client surface: writes enter through
// Host.Execute and Host.ProposeKey, reads through Host.ReadKey, and
// status comes from Host.Status. The Host also owns the runtime
// lifecycle: one sched holds every group's event loop and timer, and
// Host.Stop ends them all and sweeps every outstanding operation.
//
// Each group is a Node: the protocol's environment (rsm.Env), with a
// single-goroutine event loop, so the protocol code (which is written
// lock-free against rsm.Env) runs identically to the simulator but
// over real transports and the real clock.
package node

import (
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/clock"
	"clockrsm/internal/msg"
	"clockrsm/internal/reshard"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// Per-group event-loop sizing.
const (
	// queueLen is the event queue capacity.
	queueLen = 8192
	// batchLimit caps how many queued events one loop turn drains before
	// re-selecting. Larger batches amortize the commit scan and
	// outgoing-message coalescing further but delay the flush.
	batchLimit = 256
	// maxInFlight is the backpressure window: the maximum number of
	// proposals admitted but not yet resolved.
	maxInFlight = 1024
)

// event is one unit of event-loop work. Deliveries and proposals are
// passed as plain fields rather than closures so the hot path enqueues
// no per-message heap allocation; fn covers timers and Do callbacks.
type event struct {
	fn   func()
	m    msg.Message // non-nil: deliver m from `from`
	from types.ReplicaID
	fut  *Future // non-nil: mint an ID and submit this proposal
	read *readOp // non-nil: serve or park this local read
}

// Node hosts one replication group of a Host: transport in, protocol
// logic on the loop goroutine, transport out. It shares the Host's
// transport with its sibling groups and tags its traffic with its
// group ID. Its exported methods are the protocol's environment
// (rsm.Env, rsm.Multicaster) plus the wiring and per-group operator
// calls; clients go through the Host.
type Node struct {
	id    types.ReplicaID
	spec  []types.ReplicaID
	clk   clock.Clock
	log   storage.Log
	proto rsm.Protocol

	// group tags every outgoing message; gt/gbcast are the Host's
	// shared endpoint, the only way out.
	group  types.GroupID
	gt     transport.GroupTransport
	gbcast transport.GroupBroadcaster
	// sched is the Host's runtime: quit signal, loops and timers.
	sched *sched

	// Client API state (see propose.go). window holds one token per
	// admitted, unresolved proposal — the backpressure window of
	// maxInFlight slots. reg holds every outstanding future and local
	// read; Host.Stop sweeps it.
	window chan struct{}
	reg    registry

	// waiters routes completions back to futures, keyed by the minted
	// Seq alone: every ID the protocol mints here carries Origin == n.id,
	// and App.Execute only reports results for locally originated
	// commands. Owned by the event loop.
	waiters map[uint64]*Future

	// Read-path state (see read.go). sr is the protocol's watermark
	// interface (nil for protocols without one: reads fall back to
	// replication); sm is the resharding-wrapped state machine Host.Bind
	// installs, which local reads query (nil until bound);
	// watermark is the lock-free cache of the executed watermark,
	// refreshed by the stable listener (Stale reads and Status read
	// it); readQ is the loop-owned timestamp-ordered waiter queue.
	sr        rsm.StateReader
	sm        *reshard.SM
	watermark atomic.Int64
	readQ     readQueue
	readPurge atomic.Bool // an abandoned-read purge event is queued

	readsLocal  atomic.Uint64
	readsParked atomic.Uint64

	// nudger is the protocol's idle-read clock nudge (see clockNudger);
	// nil when unsupported. Loop-owned, invoked only from execRead.
	nudger clockNudger
	downer peerDowner // see Host.peerDown; nil when unsupported
	// recovery reports the protocol's recovery counters for Status; nil
	// when unsupported.
	recovery recoveryReporter

	// Control-plane state (see admin.go). recon is the protocol's
	// reconfiguration interface (nil for fixed-membership protocols);
	// view is the lock-free status snapshot refreshed by config events
	// (the whole Spec until a reconfigurable protocol is wired);
	// inConfigLoop is the loop-owned fast-path copy of view.InConfig the
	// submission path checks; confWaiters are pending Reconfigure
	// futures, resolved when their epoch barrier passes.
	recon        rsm.Reconfigurable
	view         atomic.Pointer[rsm.ConfigView]
	inConfigLoop bool
	confWaiters  []*confWaiter

	// Status counters and the sampled commit-latency ring (admin.go).
	proposed atomic.Uint64
	resolved atomic.Uint64
	latMu    sync.Mutex
	lat      []time.Duration
	latPos   int

	events chan event
}

var (
	_ rsm.Env         = (*Node)(nil)
	_ rsm.Multicaster = (*Node)(nil)
)

// ID implements rsm.Env.
func (n *Node) ID() types.ReplicaID { return n.id }

// Spec implements rsm.Env.
func (n *Node) Spec() []types.ReplicaID { return n.spec }

// Clock implements rsm.Env.
func (n *Node) Clock() int64 { return n.clk.Now() }

// Send implements rsm.Env.
func (n *Node) Send(to types.ReplicaID, m msg.Message) {
	n.gt.SendGroup(to, n.group, m)
}

// SendAll implements rsm.Multicaster: one encode for the whole fan-out.
func (n *Node) SendAll(dst []types.ReplicaID, m msg.Message) {
	n.gbcast.BroadcastGroup(dst, n.group, m)
}

// After implements rsm.Env: the callback runs on the event loop.
// Host.Stop cancels it; a stopped host schedules nothing.
func (n *Node) After(d time.Duration, fn func()) {
	n.sched.after(d, n, fn)
}

// Log implements rsm.Env.
func (n *Node) Log() storage.Log { return n.log }

// SetProtocol binds the protocol instance. Must precede Host.Start. The
// read-path and status interfaces are captured here — setup time, like
// Host.Bind — so client goroutines created after setup read them safely.
func (n *Node) SetProtocol(p rsm.Protocol) {
	n.proto = p
	n.sr, _ = p.(rsm.StateReader)
	n.nudger, _ = p.(clockNudger)
	n.downer, _ = p.(peerDowner)
	n.recovery, _ = p.(recoveryReporter)
}

// enqueue schedules ev on the loop; it reports false (dropping ev) if
// the host stopped.
func (n *Node) enqueue(ev event) bool {
	select {
	case n.events <- ev:
		return true
	case <-n.sched.quit:
		return false
	}
}

// wire connects the protocol's listeners before the loop starts.
func (n *Node) wire() {
	// Wire the read path: the protocol's watermark listener releases
	// parked reads and refreshes the lock-free watermark cache. The
	// loop has not started yet, so priming the cache is safe.
	if n.sr != nil {
		n.sr.SetStableListener(n.onStableAdvance)
		n.watermark.Store(n.sr.StableTS())
	}
	// Wire the control plane: the protocol's configuration events keep
	// the lock-free status view fresh, fail futures for discarded
	// commands, and resolve Reconfigure epoch barriers (admin.go). The
	// loop has not started yet, so reading the initial view is safe.
	if rc, ok := n.proto.(rsm.Reconfigurable); ok {
		n.recon = rc
		rc.SetConfigListener(n.onConfigEvent)
		v := rc.ConfigView()
		n.view.Store(&v)
		n.inConfigLoop = v.InConfig
	}
}

// exec dispatches one event to the protocol.
func (n *Node) exec(ev event) {
	switch {
	case ev.m != nil:
		n.proto.Deliver(ev.from, ev.m)
		// The message's pooled decode storage is reclaimed here — after
		// Deliver returns, a protocol retains nothing of a hot message it
		// did not copy (see msg.DecodeRecycled's ownership contract).
		msg.Recycle(ev.m)
	case ev.fut != nil:
		n.execPropose(ev.fut)
	case ev.read != nil:
		n.execRead(ev.read)
	default:
		ev.fn()
	}
}

// run is the event loop. Each turn drains every event already queued
// (up to batchLimit) before re-selecting; when the protocol supports
// batch delivery, the whole drained burst runs inside one
// BeginBatch/EndBatch bracket so it triggers a single commit cascade
// and one coalesced outgoing flush instead of per-message wakeups.
func (n *Node) run() {
	bd, _ := n.proto.(rsm.BatchDeliverer)
	for {
		select {
		case <-n.sched.quit:
			return
		case ev := <-n.events:
			if bd != nil {
				bd.BeginBatch()
			}
			n.exec(ev)
			for drained := 1; drained < batchLimit; drained++ {
				select {
				case ev = <-n.events:
					n.exec(ev)
					continue
				default:
				}
				break
			}
			if bd != nil {
				bd.EndBatch()
			}
		}
	}
}

// Do runs fn on the event loop and waits for it — the safe way to read
// protocol state from outside. Commands enter through the Host.
func (n *Node) Do(fn func()) {
	done := make(chan struct{})
	if !n.enqueue(event{fn: func() {
		fn()
		close(done)
	}}) {
		return
	}
	select {
	case <-done:
	case <-n.sched.quit:
	}
}
