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
//     schedule gets its own delay queue with monotonically non-decreasing
//     due times (due = max(previous due, now + delay)), drained by a
//     single goroutine, and all traffic to that destination flows
//     through the queue even outside fault windows — a delayed message
//     is never overtaken by a later send on the same link.
//   - Message ownership: the replication core relinquishes a message on
//     send and never mutates it afterwards, so delayed messages are held
//     by pointer and dropped messages are simply not forwarded; the
//     wrapper never copies or recycles.
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
		if f.Kind == LinkDelay {
			if t.queues == nil {
				t.queues = make(map[types.ReplicaID]*delayQueue)
			}
			if t.queues[f.To] == nil {
				t.queues[f.To] = &delayQueue{t: t, to: f.To}
			}
		}
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
	queues map[types.ReplicaID]*delayQueue

	mu            sync.Mutex
	closed        bool
	drops, delays uint64
	firedDrop     map[int]bool
	firedDelay    map[int]bool
	drain         sync.WaitGroup
}

var (
	_ transport.GroupTransport   = (*ChaosTransport)(nil)
	_ transport.GroupBroadcaster = (*ChaosTransport)(nil)
)

// Self returns the wrapped endpoint's replica.
func (t *ChaosTransport) Self() types.ReplicaID { return t.self }

// SetHandler passes through to the wrapped endpoint.
func (t *ChaosTransport) SetHandler(h transport.Handler) { t.inner.SetHandler(h) }

// Start starts the wrapped endpoint and the delay-queue drainers.
func (t *ChaosTransport) Start() error {
	if err := t.inner.Start(); err != nil {
		return err
	}
	for _, q := range t.queues {
		q.start()
	}
	return nil
}

// Close stops the drainers (discarding messages still in flight inside
// a delay window — they were late; now they are lost, which a
// best-effort transport may always do) and closes the wrapped endpoint.
func (t *ChaosTransport) Close() error {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	t.mu.Unlock()
	if !already {
		for _, q := range t.queues {
			q.stop()
		}
		t.drain.Wait()
	}
	return t.inner.Close()
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
		for i, f := range t.faults {
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
				t.fireLocked(&t.firedDrop, i)
				t.mu.Unlock()
				return
			case LinkDelay:
				extra += f.Delay
				t.mu.Lock()
				t.delays++
				t.fireLocked(&t.firedDelay, i)
				t.mu.Unlock()
			}
		}
	}
	if q := t.queues[to]; q != nil {
		// All traffic to a delay-faulted destination goes through its
		// queue, even with zero extra delay, so FIFO order on the link
		// survives the fault window's edges.
		q.enqueue(extra, g, m)
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

// fireLocked marks fault window i as having fired (first activation);
// callers hold t.mu. The per-window sets exist so tests can distinguish
// "window never activated" from "window activated once, counted many".
func (t *ChaosTransport) fireLocked(set *map[int]bool, i int) {
	if *set == nil {
		*set = make(map[int]bool)
	}
	(*set)[i] = true
}

func (t *ChaosTransport) addCounts(into map[string]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	add(into, "link.drop", t.drops)
	add(into, "link.delay", t.delays)
}

// delayQueue holds the in-flight messages of one delay-faulted directed
// link, in due-time order (monotone by construction), drained by one
// goroutine.
type delayQueue struct {
	t  *ChaosTransport
	to types.ReplicaID

	mu      sync.Mutex
	cond    *sync.Cond
	pending []delayed
	lastDue time.Time
	stopped bool
}

type delayed struct {
	due time.Time
	g   types.GroupID
	m   msg.Message
}

func (q *delayQueue) start() {
	q.mu.Lock()
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
	}
	q.mu.Unlock()
	q.t.drain.Add(1)
	go q.run()
}

func (q *delayQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	if q.cond != nil {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

func (q *delayQueue) enqueue(extra time.Duration, g types.GroupID, m msg.Message) {
	due := time.Now().Add(extra)
	q.mu.Lock()
	if q.stopped || q.cond == nil {
		// Not started (endpoint never Started) or already closing: fall
		// through synchronously so pre-Start traffic is not lost.
		q.mu.Unlock()
		q.t.inner.SendGroup(q.to, g, m)
		return
	}
	if due.Before(q.lastDue) {
		due = q.lastDue // FIFO: never overtake an earlier, slower message
	}
	q.lastDue = due
	q.pending = append(q.pending, delayed{due: due, g: g, m: m})
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *delayQueue) run() {
	defer q.t.drain.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.stopped {
			q.cond.Wait()
		}
		if q.stopped {
			q.pending = nil
			q.mu.Unlock()
			return
		}
		d := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()
		if wait := time.Until(d.due); wait > 0 {
			time.Sleep(wait)
		}
		q.t.inner.SendGroup(q.to, d.g, d.m)
	}
}
