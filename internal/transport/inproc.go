package transport

import (
	"fmt"
	"sync"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// HubOptions configure an in-process hub.
type HubOptions struct {
	// Latency, when non-nil, delays each message by the matrix's one-way
	// latency, emulating a WAN deployment in real time.
	Latency *wan.Matrix
	// Codec forces every message through the binary codec
	// (encode+decode), charging realistic serialization CPU cost, so
	// message size matters as it does on a real network stack.
	Codec bool
	// Groups is the number of replication groups multiplexed over each
	// endpoint (default 1). Each group gets its own inbox and delivery
	// goroutine, so groups at one endpoint make progress independently —
	// the in-process analogue of the TCP transport's group-tagged
	// frames over a shared connection set.
	Groups int
}

// delivery is one message queued at a group's inbox.
type delivery struct {
	from types.ReplicaID
	m    msg.Message
}

// Hub connects N in-process endpoints.
type Hub struct {
	opts HubOptions
	eps  []*inprocEndpoint
}

// hubQueueLen is the capacity of a hub endpoint's per-group inbox and,
// in latency mode, of each sender's delay line into it. A full queue
// applies backpressure to senders.
const hubQueueLen = 4096

// NewHub creates a hub with n endpoints.
func NewHub(n int, opts HubOptions) *Hub {
	if opts.Groups <= 0 {
		opts.Groups = 1
	}
	if opts.Groups > MaxGroups {
		opts.Groups = MaxGroups
	}
	h := &Hub{opts: opts}
	for i := 0; i < n; i++ {
		ep := &inprocEndpoint{
			hub:    h,
			self:   types.ReplicaID(i),
			groups: make([]inprocGroup, opts.Groups),
			quit:   make(chan struct{}),
		}
		for g := range ep.groups {
			grp := &ep.groups[g]
			grp.inbox = make(chan delivery, hubQueueLen)
			if opts.Latency == nil {
				continue
			}
			grp.lines = make([]*DelayLine, n)
			for from := range grp.lines {
				grp.lines[from] = NewDelayLine(hubQueueLen, func(_ types.GroupID, m msg.Message) {
					ep.enqueue(grp, types.ReplicaID(from), m)
				})
			}
		}
		h.eps = append(h.eps, ep)
	}
	return h
}

// Endpoint returns the transport for replica id.
func (h *Hub) Endpoint(id types.ReplicaID) Transport { return h.eps[id] }

// Close shuts down every endpoint.
func (h *Hub) Close() {
	for _, ep := range h.eps {
		ep.Close()
	}
}

// inprocGroup is one group's inbox and handler at one endpoint. The
// inbox is a plain FIFO channel. With a latency matrix, each sender's
// messages first wait out the one-way latency in lines[sender], so each
// (sender → receiver) link is FIFO but a near sender's message never
// queues behind a far sender's — a single arrival-ordered FIFO would
// head-of-line-block a 1 ms-due SUSPEND behind a 400 ms-due PREPARE
// that happened to enqueue first, an artifact no pair of real sockets
// exhibits.
type inprocGroup struct {
	handler Handler
	inbox   chan delivery
	lines   []*DelayLine // latency mode only, indexed by sender
	done    chan struct{}
}

// inprocEndpoint is one replica's view of the hub.
type inprocEndpoint struct {
	hub    *Hub
	self   types.ReplicaID
	groups []inprocGroup

	mu      sync.Mutex
	started bool
	closed  bool
	quit    chan struct{}
}

var (
	_ Transport        = (*inprocEndpoint)(nil)
	_ Broadcaster      = (*inprocEndpoint)(nil)
	_ GroupTransport   = (*inprocEndpoint)(nil)
	_ GroupBroadcaster = (*inprocEndpoint)(nil)
)

// Self implements Transport.
func (e *inprocEndpoint) Self() types.ReplicaID { return e.self }

// SetHandler implements Transport: it installs group 0's handler.
func (e *inprocEndpoint) SetHandler(h Handler) { e.groups[0].handler = h }

// Groups implements GroupTransport.
func (e *inprocEndpoint) Groups() int { return len(e.groups) }

// SetGroupHandler implements GroupTransport. It must be called before
// Start; g must name a configured group.
func (e *inprocEndpoint) SetGroupHandler(g types.GroupID, h Handler) {
	if g < 0 || int(g) >= len(e.groups) {
		panic(fmt.Sprintf("inproc endpoint %v: handler for unconfigured group %v (groups=%d)", e.self, g, len(e.groups)))
	}
	e.groups[g].handler = h
}

// Start implements Transport: it launches one delivery loop per group.
func (e *inprocEndpoint) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return fmt.Errorf("inproc endpoint %v already started", e.self)
	}
	for g := range e.groups {
		if e.groups[g].handler == nil {
			return fmt.Errorf("inproc endpoint %v has no handler for group g%d", e.self, g)
		}
	}
	e.started = true
	for g := range e.groups {
		grp := &e.groups[g]
		grp.done = make(chan struct{})
		go e.run(grp)
	}
	return nil
}

// run delivers one group's messages in inbox order.
func (e *inprocEndpoint) run(grp *inprocGroup) {
	defer close(grp.done)
	for {
		select {
		case <-e.quit:
			return
		case d := <-grp.inbox:
			grp.handler(d.from, d.m)
		}
	}
}

// Send implements Transport: it transmits on group 0.
func (e *inprocEndpoint) Send(to types.ReplicaID, m msg.Message) {
	e.SendGroup(to, 0, m)
}

// SendGroup implements GroupTransport.
func (e *inprocEndpoint) SendGroup(to types.ReplicaID, g types.GroupID, m msg.Message) {
	if g < 0 || int(g) >= len(e.groups) {
		return // unconfigured group: drop, like any delivery failure
	}
	if e.hub.opts.Codec {
		// Round-trip through the codec to charge serialization cost and
		// guarantee no state is shared across replicas. The encode buffer
		// is pooled and the decode lands in a pooled record (recycled by
		// the receiving event loop): steady state allocates nothing.
		buf := msg.GetBuf()
		buf.B = msg.EncodeTo(buf.B, m)
		decoded, err := msg.DecodeRecycled(buf.B)
		msg.PutBuf(buf)
		if err != nil {
			return // undecodable message: drop, like a corrupt frame
		}
		m = decoded
	}
	e.deliver(to, g, m)
}

// Broadcast implements Broadcaster: it fans out on group 0.
func (e *inprocEndpoint) Broadcast(dst []types.ReplicaID, m msg.Message) {
	e.BroadcastGroup(dst, 0, m)
}

// BroadcastGroup implements GroupBroadcaster: in codec mode the message
// is encoded once and decoded per recipient (each replica must still
// get its own copy), instead of encoded once per recipient.
func (e *inprocEndpoint) BroadcastGroup(dst []types.ReplicaID, g types.GroupID, m msg.Message) {
	if g < 0 || int(g) >= len(e.groups) {
		return // unconfigured group: drop, like any delivery failure
	}
	if !e.hub.opts.Codec {
		for _, to := range dst {
			if to != e.self {
				e.deliver(to, g, m)
			}
		}
		return
	}
	buf := msg.GetBuf()
	buf.B = msg.EncodeTo(buf.B, m)
	for _, to := range dst {
		if to == e.self {
			continue
		}
		decoded, err := msg.DecodeRecycled(buf.B)
		if err != nil {
			break // undecodable message: drop, like a corrupt frame
		}
		e.deliver(to, g, decoded)
	}
	msg.PutBuf(buf)
}

// deliver hands m to the destination group: straight to its inbox, or
// in latency mode to this sender's delay line into it, due after the
// matrix's one-way latency. A full inbox or line blocks the sender —
// backpressure — until the receiver drains or quits.
func (e *inprocEndpoint) deliver(to types.ReplicaID, g types.GroupID, m msg.Message) {
	dst := e.hub.eps[to]
	grp := &dst.groups[g]
	if grp.lines != nil {
		grp.lines[e.self].Push(e.hub.opts.Latency.OneWay(e.self, to), g, m)
		return
	}
	dst.enqueue(grp, e.self, m)
}

// enqueue puts m on grp's inbox, blocking while it is full.
func (e *inprocEndpoint) enqueue(grp *inprocGroup, from types.ReplicaID, m msg.Message) {
	select {
	case grp.inbox <- delivery{from: from, m: m}:
	case <-e.quit:
		msg.Recycle(m) // dropped at teardown: reclaim pooled storage
	}
}

// Close implements Transport.
func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.quit)
	for g := range e.groups {
		for _, l := range e.groups[g].lines {
			l.Close() // in-flight messages are lost with the endpoint
		}
		if e.groups[g].done != nil {
			<-e.groups[g].done
		}
	}
	return nil
}
