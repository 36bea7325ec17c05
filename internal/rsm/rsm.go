// Package rsm defines the interfaces shared by every replication
// protocol in this repository. Protocols are single-threaded,
// event-driven state machines: all methods of a Protocol are invoked
// from one logical event loop (the simulator's event dispatch or a
// replica goroutine in the real runtime), so protocol implementations
// need no internal locking.
package rsm

import (
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// Env is the environment a protocol instance runs in. Implementations
// are provided by the simulator (internal/sim) and the real runtime
// (internal/node).
type Env interface {
	// ID is this replica's identity within Spec.
	ID() types.ReplicaID
	// Spec returns the IDs of all replicas in the system specification,
	// active or failed (Table I).
	Spec() []types.ReplicaID
	// Clock returns the replica's physical clock reading in nanoseconds.
	// Readings are strictly increasing.
	Clock() int64
	// Send transmits m to another replica asynchronously.
	Send(to types.ReplicaID, m msg.Message)
	// After schedules fn on this replica's event loop after d. The timer
	// is best-effort and stops firing if the replica crashes.
	After(d time.Duration, fn func())
	// Log is this replica's stable storage log.
	Log() storage.Log
}

// Multicaster is optionally implemented by environments whose transport
// can fan a message out to many peers while encoding it only once (see
// transport.Broadcaster). Broadcast prefers it over per-peer Send.
type Multicaster interface {
	// SendAll transmits m to every replica in dst except the environment
	// itself, with the same asynchronous best-effort semantics as Send.
	SendAll(dst []types.ReplicaID, m msg.Message)
}

// Broadcast sends m to every replica in dst except env's own ID.
// Protocols handle their own copy locally, mirroring the paper's
// "send to all replicas in Config" pseudocode. If env implements
// Multicaster, the message is encoded once for the whole fan-out
// instead of once per peer.
func Broadcast(env Env, dst []types.ReplicaID, m msg.Message) {
	if mc, ok := env.(Multicaster); ok {
		mc.SendAll(dst, m)
		return
	}
	for _, id := range dst {
		if id != env.ID() {
			env.Send(id, m)
		}
	}
}

// BatchDeliverer is optionally implemented by protocols that can defer
// work across a burst of events. The event loop brackets each drained
// batch of queued events with BeginBatch/EndBatch; between the two, the
// protocol may buffer outgoing messages (coalescing them into one
// msg.Batch) and postpone its commit scan, so a burst of deliveries
// costs one commit cascade and one outgoing frame instead of one each
// per message. EndBatch is always invoked after the matching
// BeginBatch, on the same event loop.
type BatchDeliverer interface {
	BeginBatch()
	EndBatch()
}

// Protocol is a replication protocol instance bound to one replica.
type Protocol interface {
	// Start installs timers and begins participation. It must be called
	// exactly once, on the event loop.
	Start()
	// Submit hands a command from a local client to the protocol
	// (the 〈REQUEST cmd〉 upcall).
	Submit(cmd types.Command)
	// Deliver processes a protocol message from another replica.
	Deliver(from types.ReplicaID, m msg.Message)
	// NextCommandID allocates an identifier for a command a local client
	// is about to Submit. The runtime's event loop mints every
	// proposal's ID through it (node.Propose), so clients never reach
	// across goroutines into protocol state, and proposals share one
	// collision-free sequence with any direct protocol use.
	NextCommandID() types.CommandID
}

// StateMachine is the deterministic service being replicated
// (Section II-B).
type StateMachine interface {
	// Apply executes one command and returns its output. Apply must be
	// deterministic: identical command sequences produce identical
	// outputs and states on every replica.
	Apply(cmd []byte) []byte
}

// App connects a protocol to the replicated application: committed
// commands are applied in total order, and results of locally
// originated commands flow back to clients.
type App struct {
	// SM is the replicated state machine.
	SM StateMachine
	// OnReply, if non-nil, is invoked for commands that originated at
	// this replica, with the execution result.
	OnReply func(res types.Result)
	// OnCommit, if non-nil, observes every committed command in
	// execution order (used by tests and measurements).
	OnCommit func(ts types.Timestamp, cmd types.Command)

	applied uint64
}

// Redirector is optionally implemented by state machines that can
// refuse a command because its key has moved to another replication
// group (the resharding fence). TakeRedirect reports whether the most
// recent Apply was fenced, and the group the key now belongs to; the
// flag is consumed by the call.
type Redirector interface {
	TakeRedirect() (types.GroupID, bool)
}

// Execute applies cmd, bumps the execution counter, and routes the reply
// if the command originated at self. If the state machine fenced the
// command (Redirector), the reply carries the redirect instead of a
// value, so the origin can fail the proposal with a typed wrong-group
// error.
func (a *App) Execute(self types.ReplicaID, ts types.Timestamp, cmd types.Command) {
	out := a.SM.Apply(cmd.Payload)
	a.applied++
	if a.OnCommit != nil {
		a.OnCommit(ts, cmd)
	}
	if a.OnReply != nil && cmd.ID.Origin == self {
		res := types.Result{ID: cmd.ID, Value: out}
		if rd, ok := a.SM.(Redirector); ok {
			if g, fenced := rd.TakeRedirect(); fenced {
				res.SetRedirect(g)
			}
		}
		a.OnReply(res)
	}
}

// Applied returns the number of commands executed so far.
func (a *App) Applied() uint64 { return a.applied }

// Snapshotter is optionally implemented by state machines that support
// checkpointing (Section V-B): Snapshot serializes the full state after
// the last applied command; Restore replaces the state from a snapshot.
type Snapshotter interface {
	// Snapshot returns a serialized copy of the current state.
	Snapshot() []byte
	// Restore replaces the state with a previously taken snapshot.
	Restore(state []byte) error
}

// TrySnapshot snapshots the state machine if it supports it.
func (a *App) TrySnapshot() ([]byte, bool) {
	s, ok := a.SM.(Snapshotter)
	if !ok {
		return nil, false
	}
	return s.Snapshot(), true
}

// TryRestore restores the state machine from a snapshot if it supports
// it; it reports whether the restore happened.
func (a *App) TryRestore(state []byte) (bool, error) {
	s, ok := a.SM.(Snapshotter)
	if !ok {
		return false, nil
	}
	if err := s.Restore(state); err != nil {
		return false, err
	}
	return true, nil
}

// NopSM is a state machine that ignores commands; useful in protocol
// tests that only care about ordering.
type NopSM struct{}

var _ StateMachine = NopSM{}

// Apply implements StateMachine.
func (NopSM) Apply([]byte) []byte { return nil }
