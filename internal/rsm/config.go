package rsm

import "clockrsm/internal/types"

// ConfigView is a protocol's view of its current configuration: the
// installed epoch, the member set, and whether the local replica is part
// of it. Members is a private copy ordered by replica ID.
type ConfigView struct {
	Epoch    types.Epoch
	Members  []types.ReplicaID
	InConfig bool
}

// ConfigEvent notifies a listener that the protocol installed a new
// configuration (or refused a command under the current one).
type ConfigEvent struct {
	// View is the configuration in force after the event.
	View ConfigView
	// Dropped lists locally originated commands the protocol discarded:
	// their uncommitted PREPAREs were pruned by a reconfiguration (or the
	// replica was outside the configuration at submission), and the
	// protocol guarantees they can never execute in any epoch — so a
	// client may safely resubmit without risking duplicate execution.
	Dropped []types.CommandID
}

// Rejoiner is implemented by protocols with a recovery entry point:
// Rejoin forces a reconfiguration that puts the replica back into the
// configuration, catching up on missed epochs and history (checkpoint +
// tail state transfer) along the way (core.Replica.Rejoin). A replica
// restarted from its stable log rejoins by itself; Rejoin is for
// operators and harnesses that drive a removed or lagging replica back
// in. Must be invoked on the event loop; the call is asynchronous,
// self-retrying and idempotent.
type Rejoiner interface {
	Rejoin()
}

// Reconfigurable is implemented by protocols that support membership
// change as a first-class operation (Clock-RSM's Algorithm 3). Like
// every Protocol method, all three must be invoked on the event loop;
// the listener is likewise fired on the event loop.
type Reconfigurable interface {
	// Reconfigure proposes replacing the configuration with cfg at the
	// next epoch. The proposal is asynchronous: a competing proposal may
	// win the epoch, in which case the listener observes a different
	// member set. Callers learn the outcome through the listener.
	Reconfigure(cfg []types.ReplicaID)
	// ConfigView returns the current configuration view. It allocates
	// (Members is copied); intended for control-plane use.
	ConfigView() ConfigView
	// SetConfigListener installs fn, fired once per installed epoch (and
	// for drop-only events, with an unchanged view). At most one
	// listener; must be set before Start.
	SetConfigListener(fn func(ev ConfigEvent))
}
