package node

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/types"
)

// Errors returned by Propose and resolved into Futures. They are
// sentinel values: match with errors.Is.
var (
	// ErrStopped reports that the node stopped before the proposal could
	// complete. Stop resolves every unresolved Future with it.
	ErrStopped = errors.New("node: stopped")
	// ErrCanceled reports that the proposal's wait was abandoned — the
	// context expired or Cancel was called. The command itself may still
	// commit (replication cannot be recalled once the PREPARE left), but
	// it executes at most once and its result is discarded.
	ErrCanceled = errors.New("node: proposal canceled")
)

// Future is the pending result of one Propose or Reconfigure call. It
// resolves exactly once: with the operation's result, or with an error
// (ErrCanceled, ErrStopped, or one of the admin.go membership errors).
// All methods are safe for concurrent use.
type Future struct {
	n       *Node
	payload []byte

	// prev/next link the future into its node's in-flight registry (an
	// intrusive list under propMu — O(1), no hashing on the hot path).
	prev, next *Future
	// seq is the minted command sequence, published by the event loop at
	// submission; Cancel reads it to unregister the completion waiter.
	seq atomic.Uint64
	// t0 is set on the subsampled proposals whose commit latency feeds
	// the Status ring (admin.go); zero on the rest.
	t0 time.Time
	// control marks a future admitted outside the data-plane window
	// (Reconfigure): resolve must not release a slot it never took.
	control bool

	once sync.Once
	done chan struct{}
	res  types.Result
	err  error
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
	// callback), and a full queue or a stopping node just means the
	// entry lingers until the commit or the final sweep.
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
	case <-n.quit:
	default:
	}
}

// resolve fulfils the future exactly once: it leaves the node's
// in-flight registry, publishes the outcome, and releases the window
// slot the proposal was admitted under.
func (f *Future) resolve(res types.Result, err error) {
	f.once.Do(func() {
		f.res, f.err = res, err
		n := f.n
		n.propMu.Lock()
		if f.prev != nil {
			f.prev.next = f.next
		} else {
			n.inflight = f.next
		}
		if f.next != nil {
			f.next.prev = f.prev
		}
		f.prev, f.next = nil, nil
		n.propMu.Unlock()
		n.resolved.Add(1)
		if err == nil && !f.t0.IsZero() {
			n.recordLatency(time.Since(f.t0))
		}
		// Release the window slot before publishing the resolution, so a
		// caller that observes the future done can immediately re-propose
		// without waiting on a slot still held here.
		// Control-plane futures never took one.
		if !f.control {
			<-n.window
		}
		close(f.done)
	})
}

// resolved reports whether the future already resolved.
func (f *Future) resolved() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Propose submits an opaque state-machine payload at this replica and
// returns a Future for its execution result. It is the client entry
// point of the replication stack: the event loop allocates the command
// ID, registers the completion, and hands the command to the protocol,
// so no caller ever touches protocol state across goroutines.
//
// Backpressure: a proposal is admitted only while fewer than
// maxInFlight proposals are unresolved. When the window is full,
// Propose blocks until a slot frees, ctx is done (ErrCanceled) or the
// node stops (ErrStopped).
//
// Batching: every proposal the event loop drains in one batch turn
// runs inside that turn's BeginBatch/EndBatch bracket, so one coalesced
// PREPARE broadcast (one encode, one frame per link) covers all of
// them — the paper's batching (Section VI-D), with no knob: the deeper
// the queue under load, the wider the batch.
//
// ctx governs admission and can later cancel the wait through
// Future.Wait; it does not cancel a command already replicating.
//
// The result's CommandID is minted on the event loop by the protocol's
// NextCommandID and is unique within this node's replication group;
// sibling groups of a Host mint their own sequences, so cross-group
// consumers key by (group, ID).
func (n *Node) Propose(ctx context.Context, payload []byte) (*Future, error) {
	f, err := n.admit(ctx, payload)
	if err != nil {
		return nil, err
	}
	if !n.enqueue(event{fut: f}) {
		f.resolve(types.Result{}, ErrStopped)
		return nil, ErrStopped
	}
	return f, nil
}

// admit performs the shared admission path of Propose and Reconfigure:
// it takes a window slot (blocking until one frees, the context ends or
// the node stops), allocates the future and links it into the
// in-flight registry so Stop sweeps it.
func (n *Node) admit(ctx context.Context, payload []byte) (*Future, error) {
	if ctx.Err() != nil {
		return nil, ErrCanceled // the caller is already gone; admit nothing
	}
	select {
	case n.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ErrCanceled
	case <-n.quit:
		return nil, ErrStopped
	}
	f := &Future{n: n, payload: payload, done: make(chan struct{})}
	// Subsample commit latency for Status: one timed proposal per
	// (latSampleMask+1) admissions keeps the clock reads off the hot
	// path.
	if n.proposed.Add(1)&latSampleMask == 0 {
		f.t0 = time.Now()
	}
	if err := n.register(f); err != nil {
		<-n.window
		return nil, err
	}
	return f, nil
}

// admitControl admits a control-plane future (Reconfigure): it joins
// the in-flight registry so Stop sweeps it, but bypasses the data
// window, the Proposed counter and the latency sampling — a
// reconfiguration must stay proposable when the window is full of
// proposals that only the reconfiguration itself can unblock, and its
// barrier duration is not a data commit latency.
func (n *Node) admitControl(ctx context.Context) (*Future, error) {
	if ctx.Err() != nil {
		return nil, ErrCanceled
	}
	f := &Future{n: n, control: true, done: make(chan struct{})}
	if err := n.register(f); err != nil {
		return nil, err
	}
	return f, nil
}

// register links a future into the in-flight registry unless the node
// already stopped.
func (n *Node) register(f *Future) error {
	n.propMu.Lock()
	defer n.propMu.Unlock()
	if n.propStopped {
		return ErrStopped
	}
	f.next = n.inflight
	if n.inflight != nil {
		n.inflight.prev = f
	}
	n.inflight = f
	return nil
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

// sweepProposals fails every unresolved proposal with ErrStopped. It
// runs once, after the event loop has exited, so Stop never strands a
// waiter: queued and submitted-but-uncommitted proposals all resolve
// deterministically. Each resolve unlinks the head of the registry, so
// popping the head until empty visits every in-flight future exactly
// once (racing Cancels just pop it for us).
func (n *Node) sweepProposals() {
	n.propMu.Lock()
	n.propStopped = true
	n.propMu.Unlock()
	for {
		n.propMu.Lock()
		f := n.inflight
		n.propMu.Unlock()
		if f == nil {
			return
		}
		f.resolve(types.Result{}, ErrStopped)
	}
}
