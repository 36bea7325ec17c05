package node

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/types"
)

// Errors returned by the client API and resolved into Futures. They are
// sentinel values: match with errors.Is.
var (
	// ErrStopped reports that the host stopped before the operation could
	// complete. Host.Stop resolves every unresolved Future and read with
	// it.
	ErrStopped = errors.New("node: stopped")
	// ErrCanceled reports that the proposal's wait was abandoned — the
	// context expired or Cancel was called. The command itself may still
	// commit (replication cannot be recalled once the PREPARE left), but
	// it executes at most once and its result is discarded.
	ErrCanceled = errors.New("node: proposal canceled")
)

// pending is what every outstanding client operation — a propose or
// reconfigure Future, a local read — shares: its link in the group's
// registry, the channel closed when it resolves, and the resolution
// error.
type pending struct {
	prev, next *pending
	linked     bool
	// self is the Future or readOp embedding this; the sweep fails it.
	self interface{ fail(error) }
	done chan struct{}
	err  error
}

// resolved reports whether the operation already resolved.
func (o *pending) resolved() bool {
	select {
	case <-o.done:
		return true
	default:
		return false
	}
}

// registry is a group's one record of outstanding client operations:
// an intrusive list (O(1), no hashing on the hot path) that Host.Stop
// sweeps. Leaving it is how an operation claims its one resolution.
type registry struct {
	mu      sync.Mutex
	head    *pending
	stopped bool
}

// add links o in, unless the registry was already swept.
func (r *registry) add(o *pending) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return ErrStopped
	}
	o.next = r.head
	if r.head != nil {
		r.head.prev = o
	}
	r.head, o.linked = o, true
	return nil
}

// remove unlinks o and reports whether it was still linked: of all the
// racing resolutions of one operation, exactly one gets true.
func (r *registry) remove(o *pending) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !o.linked {
		return false
	}
	if o.prev != nil {
		o.prev.next = o.next
	} else {
		r.head = o.next
	}
	if o.next != nil {
		o.next.prev = o.prev
	}
	o.prev, o.next, o.linked = nil, nil, false
	return true
}

// refuse makes every later add fail with ErrStopped.
func (r *registry) refuse() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// sweep fails every linked operation with ErrStopped. Host.Stop runs it
// after the loops exited, so queued, parked and submitted operations all
// resolve. Each failure unlinks the head, so popping until empty visits
// every operation once (racing resolutions just pop it for us).
func (r *registry) sweep() {
	for {
		r.mu.Lock()
		o := r.head
		r.mu.Unlock()
		if o == nil {
			return
		}
		o.self.fail(ErrStopped)
	}
}

// Future is the pending result of one proposal (Host.ProposeKey) or
// Reconfigure call. It resolves exactly once: with the operation's
// result, or with an error (ErrCanceled, ErrStopped, or one of the
// admin.go membership errors). All methods are safe for concurrent use.
type Future struct {
	pending
	n       *Node
	payload []byte

	// seq is the minted command sequence, published by the event loop at
	// submission; Cancel reads it to unregister the completion waiter.
	seq atomic.Uint64
	// t0 is set on the subsampled proposals whose commit latency feeds
	// the Status ring (admin.go); zero on the rest.
	t0 time.Time
	// control marks a future admitted outside the data-plane window
	// (Reconfigure): resolve must not release a slot it never took.
	control bool

	res types.Result
}

func newFuture(n *Node, payload []byte, control bool) *Future {
	f := &Future{n: n, payload: payload, control: control}
	f.self, f.done = f, make(chan struct{})
	return f
}

// Done returns a channel closed when the future resolves.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the future resolves and returns the execution
// result or the resolution error.
func (f *Future) Result() (types.Result, error) {
	<-f.done
	return f.res, f.err
}

// Wait blocks until the future resolves or ctx is done. A context
// expiry cancels the proposal (see Cancel) and usually returns
// ErrCanceled; if the result raced in first, it is returned instead.
func (f *Future) Wait(ctx context.Context) (types.Result, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		f.Cancel()
	}
	<-f.done
	return f.res, f.err
}

// Cancel abandons the proposal: the future resolves ErrCanceled and its
// in-flight window slot is released. A proposal canceled before the
// event loop picked it up is never submitted at all; one canceled later
// may still commit (at most once), with the result dropped. Cancel
// after resolution is a no-op.
func (f *Future) Cancel() {
	f.resolve(types.Result{}, ErrCanceled)
	// Unregister the completion waiter, if the proposal was already
	// submitted: a command whose commit never arrives (replica cut off
	// from the majority, timeout-retry churn) must not pin its Future
	// and payload in the waiters map forever. Best-effort and
	// non-blocking — Cancel may run on the event loop itself (a user
	// callback), and a full queue just means the entry lingers until the
	// commit; a stopped host's waiters go with its loop.
	seq := f.seq.Load()
	if seq == 0 {
		return
	}
	n := f.n
	select {
	case n.events <- event{fn: func() {
		if n.waiters[seq] == f {
			delete(n.waiters, seq)
		}
	}}:
	default:
	}
}

// resolve fulfils the future exactly once: it leaves the registry,
// publishes the outcome, and releases the window slot the proposal was
// admitted under.
func (f *Future) resolve(res types.Result, err error) {
	n := f.n
	if !n.reg.remove(&f.pending) {
		return
	}
	f.res, f.err = res, err
	n.resolved.Add(1)
	if err == nil && !f.t0.IsZero() {
		n.recordLatency(n.sched.since(f.t0))
	}
	// Release the window slot before publishing the resolution, so a
	// caller that observes the future done can immediately re-propose
	// without waiting on a slot still held here. Control futures took none.
	if !f.control {
		<-n.window
	}
	close(f.done)
}

func (f *Future) fail(err error) { f.resolve(types.Result{}, err) }

// propose is Host.ProposeKey on this group: it takes a window slot
// (blocking until one frees, ctx ends or the host stops), registers a
// future so Host.Stop sweeps it, and queues it for the event loop. Only
// a registered proposal counts as admitted.
func (n *Node) propose(ctx context.Context, payload []byte) (*Future, error) {
	if ctx.Err() != nil {
		return nil, ErrCanceled // the caller is already gone; admit nothing
	}
	select {
	case n.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ErrCanceled
	case <-n.sched.quit:
		return nil, ErrStopped
	}
	f := newFuture(n, payload, false)
	if err := n.reg.add(&f.pending); err != nil {
		<-n.window
		return nil, err
	}
	// Subsample commit latency for Status: one timed proposal per
	// (latSampleMask+1) admissions keeps the clock reads off the hot
	// path. Stamping after add is safe: until propose returns, only the
	// sweep can resolve f, and a failed future never reads t0.
	if n.proposed.Add(1)&latSampleMask == 0 {
		f.t0 = n.sched.now()
	}
	if !n.enqueue(event{fut: f}) {
		f.resolve(types.Result{}, ErrStopped)
		return nil, ErrStopped
	}
	return f, nil
}

// execPropose runs on the event loop: it mints the command ID, registers
// the completion and submits the command to the protocol. A future
// canceled before reaching the loop is dropped without ever submitting,
// so a canceled proposal can never execute twice.
func (n *Node) execPropose(f *Future) {
	if f.resolved() {
		return
	}
	// A replica outside the configuration cannot replicate: fail fast so
	// the client fails over, instead of handing the protocol a command
	// it would silently drop (and parking the future until its deadline).
	if n.recon != nil && !n.inConfigLoop {
		f.resolve(types.Result{}, ErrNotInConfig)
		return
	}
	id := n.proto.NextCommandID()
	f.seq.Store(id.Seq)
	// Re-check after publishing the seq: a Cancel racing in between saw
	// seq == 0 and won't unregister, so don't register (or submit) at
	// all — between the two checks every cancellation path is covered.
	if f.resolved() {
		return
	}
	n.waiters[id.Seq] = f
	n.proto.Submit(types.Command{ID: id, Payload: f.payload})
}

// completeProposal resolves the future registered for a finished
// command. It runs on the event loop, through the OnReply hook
// Host.Bind installs.
// A result carrying a routing redirect means the command was fenced —
// never executed — so its future fails with the typed wrong-group
// error and the caller is free to resubmit at the new owner.
func (n *Node) completeProposal(res types.Result) {
	f, ok := n.waiters[res.ID.Seq]
	if !ok {
		return
	}
	delete(n.waiters, res.ID.Seq)
	if to, fenced := res.RedirectGroup(); fenced {
		f.resolve(types.Result{ID: res.ID}, &WrongGroupError{To: to})
		return
	}
	f.resolve(res, nil)
}
