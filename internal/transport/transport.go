// Package transport provides the real-runtime message transports for
// replica nodes: an in-process hub with optional WAN latency emulation
// (used by the tests, scenario harnesses, benchmark and examples) and a
// TCP transport with length-prefixed frames (used by kvserver).
package transport

import (
	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// Handler receives messages delivered to a replica.
type Handler func(from types.ReplicaID, m msg.Message)

// Transport moves protocol messages between replicas. Send is
// asynchronous and best-effort: delivery failures surface as silence,
// matching the asynchronous system model (Section II-A).
type Transport interface {
	// Self returns the replica this transport endpoint belongs to.
	Self() types.ReplicaID
	// SetHandler installs the delivery callback; it must be called
	// before Start.
	SetHandler(h Handler)
	// Send transmits m to another replica.
	Send(to types.ReplicaID, m msg.Message)
	// Start begins delivering messages.
	Start() error
	// Close stops the endpoint and releases resources.
	Close() error
}

// Broadcaster is optionally implemented by transports that can fan one
// message out to many peers while paying the serialization cost once.
// Both transports in this package implement it: the TCP endpoint
// encodes a single wire frame and enqueues the same (refcounted,
// read-only) bytes on every peer outbox; the in-process hub in codec
// mode encodes once and decodes per recipient.
type Broadcaster interface {
	// Broadcast sends m to every replica in dst except the endpoint
	// itself, with the same best-effort semantics as Send.
	Broadcast(dst []types.ReplicaID, m msg.Message)
}

// GroupTransport is implemented by transports that multiplex several
// independent replication groups over one endpoint and connection set.
// Frames carry a group tag at the framing layer (the message codec in
// internal/msg is untouched), and inbound traffic is demultiplexed to
// the per-group handler. Group handlers must be installed before Start.
// Plain Transport calls address group 0: SetHandler is
// SetGroupHandler(0, ·) and Send is SendGroup(to, 0, ·), so a
// single-group deployment never sees the group machinery.
type GroupTransport interface {
	Transport
	// Groups returns the number of groups this endpoint multiplexes.
	Groups() int
	// SetGroupHandler installs the delivery callback for one group; it
	// must be called before Start. g must be in [0, Groups()).
	SetGroupHandler(g types.GroupID, h Handler)
	// SendGroup transmits m to another replica tagged with group g, with
	// the same best-effort semantics as Send. Messages tagged with a
	// group the endpoint was not configured for are dropped.
	SendGroup(to types.ReplicaID, g types.GroupID, m msg.Message)
}

// GroupBroadcaster is the group-tagged analogue of Broadcaster: one
// serialization pays for the whole fan-out of a group-tagged message.
type GroupBroadcaster interface {
	// BroadcastGroup sends m tagged with group g to every replica in dst
	// except the endpoint itself.
	BroadcastGroup(dst []types.ReplicaID, g types.GroupID, m msg.Message)
}

// PeerWatcher is implemented by transports that see a peer's process
// exit: an established link to it broke and the immediate redial was
// refused. A silent peer (a dead host, a partition) raises nothing.
type PeerWatcher interface {
	// WatchPeers installs fn, called once per lost link; before Start.
	WatchPeers(fn func(down types.ReplicaID))
}

// MaxGroups bounds the group tag carried in wire frames. A received
// frame naming a group at or above this limit indicates a corrupt
// stream (it can never be produced by a conforming sender) and kills
// the connection; a group below the limit but not hosted locally is
// dropped silently, like any other best-effort delivery failure.
const MaxGroups = 4096
