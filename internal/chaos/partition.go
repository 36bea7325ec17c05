package chaos

import (
	"fmt"
	"sync"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// Transport wraps a transport endpoint with this engine's link-fault
// windows, evaluated sender-side on the directed links out of the
// endpoint's own replica. It works identically over the in-process hub
// and the TCP transport because it only touches the send path; receive
// handlers, group demultiplexing, and lifecycle pass straight through.
//
// Two invariants the protocol depends on are preserved:
//
//   - Per-link FIFO: every destination with any LinkDelay window in the
//     schedule gets its own transport.DelayLine, and all traffic to that
//     destination flows through the line even outside fault windows — a
//     delayed message is never overtaken by a later send on the same
//     link.
//   - Message ownership: the replication core relinquishes a message on
//     send and never mutates it afterwards, so delayed messages are held
//     by pointer and dropped messages are simply not forwarded; the
//     wrapper never copies them.
//
// inner must implement transport.GroupTransport and
// transport.GroupBroadcaster, as every endpoint node.NewHost accepts
// does; anything else is a wiring bug and panics.
func (e *Engine) Transport(inner transport.Transport) *ChaosTransport {
	gt, isGT := inner.(transport.GroupTransport)
	gb, isGB := inner.(transport.GroupBroadcaster)
	if !isGT || !isGB {
		panic(fmt.Sprintf("chaos: transport %T does not multiplex groups", inner))
	}
	t := &ChaosTransport{
		eng:     e,
		inner:   gt,
		innerGB: gb,
		self:    inner.Self(),
	}
	for _, f := range e.sched.Links {
		if f.From != t.self {
			continue
		}
		t.faults = append(t.faults, f)
		if f.Kind != LinkDelay || t.lines[f.To] != nil {
			continue
		}
		if t.lines == nil {
			t.lines = make(map[types.ReplicaID]*transport.DelayLine)
		}
		t.lines[f.To] = transport.NewDelayLine(0, func(g types.GroupID, m msg.Message) {
			t.inner.SendGroup(f.To, g, m)
		})
	}
	e.register(t.self, t.addCounts)
	return t
}

// ChaosTransport is the fault-injecting endpoint wrapper built by
// Engine.Transport. It implements GroupTransport and GroupBroadcaster;
// plain Send addresses group 0.
type ChaosTransport struct {
	eng     *Engine
	inner   transport.GroupTransport
	innerGB transport.GroupBroadcaster
	self    types.ReplicaID

	faults []LinkFault
	lines  map[types.ReplicaID]*transport.DelayLine // unbounded

	mu            sync.Mutex
	drops, delays uint64
}

var (
	_ transport.GroupTransport   = (*ChaosTransport)(nil)
	_ transport.GroupBroadcaster = (*ChaosTransport)(nil)
	_ transport.PeerWatcher      = (*ChaosTransport)(nil)
)

// Self returns the wrapped endpoint's replica.
func (t *ChaosTransport) Self() types.ReplicaID { return t.self }

// SetHandler passes through to the wrapped endpoint.
func (t *ChaosTransport) SetHandler(h transport.Handler) { t.inner.SetHandler(h) }

// Start starts the wrapped endpoint.
func (t *ChaosTransport) Start() error { return t.inner.Start() }

// Close closes the delay lines, discarding messages still in flight
// inside a delay window — they were late; now they are lost, which a
// best-effort transport may always do — and then the wrapped endpoint.
func (t *ChaosTransport) Close() error {
	for _, l := range t.lines {
		l.Close()
	}
	return t.inner.Close()
}

// WatchPeers passes through to the wrapped endpoint, if it watches peers.
func (t *ChaosTransport) WatchPeers(fn func(down types.ReplicaID)) {
	if w, ok := t.inner.(transport.PeerWatcher); ok {
		w.WatchPeers(fn)
	}
}

// Groups returns the wrapped endpoint's group count.
func (t *ChaosTransport) Groups() int { return t.inner.Groups() }

// SetGroupHandler passes through to the wrapped endpoint.
func (t *ChaosTransport) SetGroupHandler(g types.GroupID, h transport.Handler) {
	t.inner.SetGroupHandler(g, h)
}

// Send transmits m to another replica on group 0 through the fault
// windows.
func (t *ChaosTransport) Send(to types.ReplicaID, m msg.Message) {
	t.SendGroup(to, 0, m)
}

// SendGroup transmits m tagged with group g through the fault windows.
func (t *ChaosTransport) SendGroup(to types.ReplicaID, g types.GroupID, m msg.Message) {
	el, armed := t.eng.elapsed()
	var extra time.Duration
	if armed {
		for _, f := range t.faults {
			if f.To != to || el < f.At {
				continue
			}
			if f.Duration > 0 && el >= f.At+f.Duration {
				continue
			}
			switch f.Kind {
			case LinkDrop:
				t.mu.Lock()
				t.drops++
				t.mu.Unlock()
				return
			case LinkDelay:
				extra += f.Delay
				t.mu.Lock()
				t.delays++
				t.mu.Unlock()
			}
		}
	}
	if l := t.lines[to]; l != nil {
		// All traffic to a delay-faulted destination goes through its
		// line, even with zero extra delay, so FIFO order on the link
		// survives the fault window's edges.
		l.Push(extra, g, m)
		return
	}
	t.inner.SendGroup(to, g, m)
}

// BroadcastGroup fans out per peer so each directed link sees its own
// fault state; with no faults scheduled from this replica it delegates
// to the wrapped broadcaster (keeping, e.g., the hub's single-encode
// path).
func (t *ChaosTransport) BroadcastGroup(dst []types.ReplicaID, g types.GroupID, m msg.Message) {
	if len(t.faults) == 0 {
		t.innerGB.BroadcastGroup(dst, g, m)
		return
	}
	for _, to := range dst {
		if to != t.self {
			t.SendGroup(to, g, m)
		}
	}
}

func (t *ChaosTransport) addCounts(into map[string]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	add(into, "link.drop", t.drops)
	add(into, "link.delay", t.delays)
}
