package core

import (
	"clockrsm/internal/types"
)

// pendingCmd is one not-yet-committed command (an element of
// PendingCmds, Table I).
type pendingCmd struct {
	ts  types.Timestamp
	cmd types.Command
}

// pendingSet is PendingCmds as one FIFO per origin: q[j] holds origin
// j's commands. An origin's PREPAREs arrive over one FIFO link with
// strictly increasing walls, so each queue is already in timestamp
// order and the smallest pending timestamp is the least of n heads.
type pendingSet struct {
	q []originQueue
	n int
}

// originQueue is one origin's pending commands, buf[head:], in wall
// order. Popped slots are reused once the queue drains or its backing
// array fills, so the hot path allocates only on growth.
type originQueue struct {
	buf  []pendingCmd
	head int
}

// Add appends a command to its origin's queue unless its timestamp is
// not above that queue's tail (a duplicate delivery). It reports whether
// the command was inserted. ts.Node must be below the set's size.
func (p *pendingSet) Add(ts types.Timestamp, cmd types.Command) bool {
	q := &p.q[ts.Node]
	if n := len(q.buf); n > q.head && ts.Wall <= q.buf[n-1].ts.Wall {
		return false
	}
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, pendingCmd{ts: ts, cmd: cmd})
	p.n++
	return true
}

// Len returns the number of pending commands.
func (p *pendingSet) Len() int { return p.n }

// Min returns the pending command with the smallest timestamp. It must
// not be called on an empty set.
func (p *pendingSet) Min() pendingCmd {
	q := p.minQueue()
	return q.buf[q.head]
}

// PopMin removes the smallest pending command.
func (p *pendingSet) PopMin() {
	q := p.minQueue()
	q.buf[q.head] = pendingCmd{}
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	p.n--
}

// minQueue returns the non-empty queue with the smallest head; the set
// must not be empty.
func (p *pendingSet) minQueue() *originQueue {
	var best *originQueue
	for i := range p.q {
		q := &p.q[i]
		if q.head < len(q.buf) && (best == nil || q.buf[q.head].ts.Less(best.buf[best.head].ts)) {
			best = q
		}
	}
	return best
}

// Clear drops every pending command (used at reconfiguration).
func (p *pendingSet) Clear() { *p = pendingSet{q: make([]originQueue, len(p.q))} }
