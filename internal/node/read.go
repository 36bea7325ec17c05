package node

import (
	"container/heap"
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrTooStale reports that a Stale read's bound was exceeded: the
// replica's executed watermark is older than the requested maximum age.
// The caller may retry at a fresher replica or at a stronger level.
var ErrTooStale = errors.New("node: read watermark older than the staleness bound")

// Tier is the consistency tier of a read.
type Tier uint8

// Tiers, strongest first.
const (
	// TierLinearizable reads observe every write that completed before
	// the read began, with no replication traffic: the read captures the
	// local clock and is served from local state once the executed
	// watermark covers the capture time.
	TierLinearizable Tier = iota
	// TierSequential reads serve the current watermark immediately and
	// are monotonic across replicas through a Session token.
	TierSequential
	// TierStale reads serve local state immediately, never touching the
	// event loop, and report how old the watermark they reflect is.
	TierStale
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierLinearizable:
		return "linearizable"
	case TierSequential:
		return "sequential"
	case TierStale:
		return "stale"
	default:
		return "tier(?)"
	}
}

// Level selects the consistency tier of one read and carries the
// tier's parameters. Use the Linearizable value, or the Sequential and
// Stale constructors.
type Level struct {
	tier   Tier
	maxAge time.Duration
	sess   *Session
}

// Linearizable is the strongest read level: the read observes every
// write that completed (anywhere) before the read began. The read
// captures t = the local clock and parks on a timestamp-ordered waiter
// queue until the executed watermark covers t, then serves from local
// state — no PREPARE broadcast, no log traffic. Correctness needs no
// clock-skew bound: a write only commits once every configured
// replica's clock passed its timestamp (the paper's stable-order rule),
// so this replica's clock has always passed the timestamp of any
// completed write by the time a later read captures it.
var Linearizable = Level{tier: TierLinearizable}

// Sequential returns the session-monotonic read level: the read serves
// the replica's current watermark immediately (parking only if the
// replica has not yet caught up to the session), and records the
// watermark it observed in s, so a later read through the same session
// — at this or any other replica — never observes older state. A nil
// session reads the current watermark with no cross-replica guarantee.
func Sequential(s *Session) Level { return Level{tier: TierSequential, sess: s} }

// Stale returns the bounded-staleness read level: the read serves local
// state immediately from the caller's goroutine — it never crosses the
// event loop — and reports the age of the watermark it reflects. A
// positive maxAge fails the read with ErrTooStale instead of serving
// state older than that; maxAge ≤ 0 serves unconditionally.
func Stale(maxAge time.Duration) Level { return Level{tier: TierStale, maxAge: maxAge} }

// Tier returns the level's consistency tier.
func (l Level) Tier() Tier { return l.tier }

// Session carries the monotonicity token for Sequential reads. The
// zero value is ready to use; one Session is shared by all reads that
// must observe non-decreasing state, and is safe for concurrent use.
type Session struct {
	w atomic.Int64
}

// Watermark returns the newest executed watermark a read through this
// session has observed.
func (s *Session) Watermark() int64 { return s.w.Load() }

// Advance folds a served read's watermark into the session token,
// keeping it monotonic. Local reads advance their session
// automatically; Advance exists for remote front ends — a client
// library carrying the token across connections feeds the watermark
// each GETS response reports back into its session, so sequential reads
// stay monotonic across replica failover.
func (s *Session) Advance(w int64) { s.observe(w) }

// observe folds a served read's watermark into the session token.
func (s *Session) observe(w int64) {
	for {
		cur := s.w.Load()
		if w <= cur || s.w.CompareAndSwap(cur, w) {
			return
		}
	}
}

// ReadResult is the outcome of one read.
type ReadResult struct {
	// Value is the state machine's answer to the query.
	Value []byte
	// Watermark is the executed watermark the read was served at: every
	// command with timestamp ≤ Watermark is reflected in Value. Zero
	// when the read was replicated.
	Watermark int64
	// Age is how far the local clock was past the watermark at serve
	// time — an upper bound on the staleness of Value. Zero when the
	// read was replicated.
	Age time.Duration
	// Replicated reports that the read could not be served locally (the
	// protocol exposes no watermark, or the state machine no local
	// query) and went through the log as a command instead.
	Replicated bool
}

// clockNudger is implemented by protocols that can solicit an immediate
// clock broadcast from their peers (core.Replica.NudgeClock): a parked
// linearizable read on an idle cluster then waits one round trip
// instead of the rest of the Δ interval. Loop-only, like Submit.
type clockNudger interface {
	NudgeClock()
}

// readOp is one read parked in (or bound for) the node's waiter queue.
// It resolves exactly once; abandoning callers (context expiry) resolve
// it themselves and the loop's later serve becomes a no-op.
type readOp struct {
	pending
	n *Node
	// ts is the watermark the read waits for: the captured local clock
	// for Linearizable, the session token for Sequential.
	ts    int64
	query []byte
	sess  *Session
	// lin marks a Linearizable read: the only tier whose parking is
	// bounded by the clock rather than by this replica's catch-up, and
	// therefore the only one worth a nudge.
	lin bool
	// gate re-validates the read at serve time (after the watermark
	// wait, before the query): Host.ReadKey's routing check refuses a
	// read whose key's slot migrated away — or is mid-migration —
	// between submit and serve, with a typed wrong-group error the
	// caller retries against the refreshed table.
	gate func() error

	res ReadResult
}

// resolve fulfils the read exactly once and leaves the registry. It
// reports whether this call won — false means the read had already
// resolved (e.g. abandoned by its caller).
func (r *readOp) resolve(res ReadResult, err error) bool {
	if !r.n.reg.remove(&r.pending) {
		return false
	}
	r.res, r.err = res, err
	close(r.done)
	return true
}

func (r *readOp) fail(err error) { r.resolve(ReadResult{}, err) }

// readQueue is the timestamp-ordered waiter queue: a min-heap on the
// watermark each parked read waits for. Loop-owned.
type readQueue []*readOp

func (q readQueue) Len() int            { return len(q) }
func (q readQueue) Less(i, j int) bool  { return q[i].ts < q[j].ts }
func (q readQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *readQueue) Push(x interface{}) { *q = append(*q, x.(*readOp)) }
func (q *readQueue) Pop() interface{} {
	old := *q
	n := len(old)
	op := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return op
}

// read answers a read-only query against the replicated state machine
// at the requested consistency level, serving from the locally executed
// stable prefix whenever the protocol supports it (rsm.StateReader) —
// no PREPARE broadcast, no log traffic. Host.ReadKey is its one caller,
// with a serve-time gate (see readOp.gate). query uses the state
// machine's own encoding (kvstore.Get for the key-value store) and must
// be read-only: when the protocol exposes no watermark (paxos, mencius),
// the read falls back to replicating query through the log as a
// command, and executes it there.
//
// A Linearizable read can stall while the watermark catches up to its
// capture time: with no write traffic the watermark advances only with
// the CLOCKTIME broadcast (core.Options.ClockTimeInterval Δ, which
// bounds the stall; Δ = 0 disables the broadcast and an idle system
// serves no linearizable reads), and a suspended or partitioned
// configuration stalls reads until it recovers. ctx bounds the wait. At
// a replica removed from the configuration, parked reads resolve
// ErrNotInConfig — the same sweep contract as write futures.
func (n *Node) read(ctx context.Context, query []byte, lvl Level, gate func() error) (ReadResult, error) {
	if ctx.Err() != nil {
		return ReadResult{}, ErrCanceled
	}
	if n.sr == nil || n.sm == nil {
		return n.readReplicated(ctx, query)
	}
	if lvl.tier == TierStale {
		return n.readStale(query, lvl, gate)
	}
	op := &readOp{n: n, query: query, sess: lvl.sess, gate: gate}
	op.self, op.done = op, make(chan struct{})
	switch lvl.tier {
	case TierLinearizable:
		// Capture t before enqueueing: every write that completed before
		// this call has a timestamp the local clock already passed (see
		// Linearizable), and a later capture only waits longer.
		op.ts = n.clk.Now()
		op.lin = true
	case TierSequential:
		if lvl.sess != nil {
			op.ts = lvl.sess.Watermark()
		}
	}
	if err := n.reg.add(&op.pending); err != nil {
		return ReadResult{}, err
	}
	if !n.enqueue(event{read: op}) {
		op.resolve(ReadResult{}, ErrStopped)
		return ReadResult{}, ErrStopped
	}
	select {
	case <-op.done:
	case <-ctx.Done():
		// Abandon the wait: if the loop serves the read first, its
		// result wins and is returned below. The op may be parked on the
		// waiter queue; schedule a purge so abandoned reads don't pin
		// memory at a replica whose watermark is stalled (retry loops
		// against a partitioned replica would otherwise grow the heap
		// without bound).
		op.resolve(ReadResult{}, ErrCanceled)
		n.purgeAbandonedReads()
	}
	<-op.done
	if op.err != nil {
		return ReadResult{}, op.err
	}
	if op.sess != nil {
		op.sess.observe(op.res.Watermark)
	}
	return op.res, nil
}

// readStale serves a bounded-staleness read from the caller's
// goroutine: the watermark cache is atomic and the state machine's
// Query is required to be safe against concurrent Apply, so the read
// never waits on the event loop. The state queried may be newer than
// the cached watermark, never older — Age is an upper bound.
func (n *Node) readStale(query []byte, lvl Level, gate func() error) (ReadResult, error) {
	select {
	case <-n.sched.quit:
		// Keep the shutdown contract uniform across tiers: a stopped
		// host fails reads instead of serving its frozen state forever.
		return ReadResult{}, ErrStopped
	default:
	}
	if err := gate(); err != nil {
		return ReadResult{}, err
	}
	w := n.watermark.Load()
	age := time.Duration(n.clk.Now() - w)
	if lvl.maxAge > 0 && age > lvl.maxAge {
		return ReadResult{}, ErrTooStale
	}
	val := n.sm.Query(query)
	n.readsLocal.Add(1)
	return ReadResult{Value: val, Watermark: w, Age: age}, nil
}

// readReplicated is the fallback for protocols without a watermark (or
// state machines without a local query): the read replicates through
// the log as a command and executes in the total order, at every level.
func (n *Node) readReplicated(ctx context.Context, query []byte) (ReadResult, error) {
	fut, err := n.propose(ctx, query)
	if err != nil {
		return ReadResult{}, err
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		return ReadResult{}, err
	}
	return ReadResult{Value: res.Value, Replicated: true}, nil
}

// execRead runs on the event loop: serve the read if the watermark
// already covers its target, park it on the waiter queue otherwise.
func (n *Node) execRead(op *readOp) {
	if op.resolved() {
		return
	}
	// A replica outside the configuration stops executing its group's
	// commands: its watermark is frozen and its state stale. Fail fast
	// so the client reads elsewhere.
	if n.recon != nil && !n.inConfigLoop {
		op.resolve(ReadResult{}, ErrNotInConfig)
		return
	}
	if w := n.sr.StableTS(); w >= op.ts {
		n.serveRead(op, w)
		return
	}
	heap.Push(&n.readQ, op)
	n.readsParked.Add(1)
	if op.lin && n.nudger != nil {
		// Idle-read nudge (paper §IV): the watermark is behind this
		// read's clock capture, which on an idle cluster only resolves
		// with the next CLOCKTIME broadcast. Ask the peers for their
		// clocks now; the protocol coalesces bursts of parked reads into
		// one CLOCKREQ.
		n.nudger.NudgeClock()
	}
}

// serveRead answers one read from local state at watermark w. Runs on
// the event loop, where local state is exactly the executed prefix.
func (n *Node) serveRead(op *readOp, w int64) {
	if err := op.gate(); err != nil {
		op.resolve(ReadResult{}, err)
		return
	}
	val := n.sm.Query(op.query)
	// Count only reads whose result was actually delivered: a caller's
	// cancellation can win the race right up to this resolve, and an
	// abandoned read must not inflate the served counter.
	if op.resolve(ReadResult{Value: val, Watermark: w, Age: time.Duration(n.clk.Now() - w)}, nil) {
		n.readsLocal.Add(1)
	}
}

// onStableAdvance is the protocol's watermark listener (installed at
// startLoop when the protocol implements rsm.StateReader). It runs on
// the event loop after every turn in which the watermark may have
// advanced: it refreshes the lock-free watermark cache (Stale reads and
// Status read it) and releases parked reads the watermark now covers,
// in timestamp order.
func (n *Node) onStableAdvance() {
	w := n.sr.StableTS()
	n.watermark.Store(w)
	for len(n.readQ) > 0 && n.readQ[0].ts <= w {
		op := heap.Pop(&n.readQ).(*readOp)
		if op.resolved() {
			continue // abandoned while parked
		}
		n.serveRead(op, w)
	}
}

// purgeAbandonedReads schedules a compaction of the waiter queue,
// dropping entries whose reads already resolved (abandoned by their
// callers). Best-effort and non-blocking, coalesced across concurrent
// cancellations — a full queue just means the entries linger until the
// next purge or drain; a stopped host's are dropped with its loop.
func (n *Node) purgeAbandonedReads() {
	if !n.readPurge.CompareAndSwap(false, true) {
		return // a purge is already queued; it will cover this op
	}
	select {
	case n.events <- event{fn: func() {
		n.readPurge.Store(false)
		kept := n.readQ[:0]
		for _, op := range n.readQ {
			if !op.resolved() {
				kept = append(kept, op)
			}
		}
		for i := len(kept); i < len(n.readQ); i++ {
			n.readQ[i] = nil
		}
		n.readQ = kept
		heap.Init(&n.readQ) // compaction broke the heap order
	}}:
	default:
		n.readPurge.Store(false)
	}
}

// failParkedReads resolves every parked read with err and empties the
// waiter queue. Runs on the event loop (configuration removal).
func (n *Node) failParkedReads(err error) {
	for len(n.readQ) > 0 {
		op := heap.Pop(&n.readQ).(*readOp)
		op.resolve(ReadResult{}, err)
	}
}
