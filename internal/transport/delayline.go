package transport

import (
	"sync"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// DelayLine is one directed link's in-flight messages in real time: a
// FIFO queue whose due times never decrease (due = max(previous due,
// now + delay)), so a message is never overtaken by a later one on the
// same link — the loss-free FIFO channel Clock-RSM assumes (Section
// II-A). One goroutine, started by the first Push, hands each message
// to the deliver function once it is due, waiting on a timer or Close.
// The hub's WAN latency and the chaos engine's link delays are both
// built on it.
type DelayLine struct {
	bound   int
	deliver func(types.GroupID, msg.Message)
	wake    chan struct{} // pulsed when a push lands on an empty line
	quit    chan struct{}
	done    chan struct{}

	mu      sync.Mutex
	space   *sync.Cond // signalled when the drainer pops and on Close
	pending []delayed
	lastDue time.Time
	started bool
	closed  bool
}

type delayed struct {
	due time.Time
	g   types.GroupID
	m   msg.Message
}

// NewDelayLine returns an empty line that hands each due message to
// deliver. A positive bound caps how many messages the line holds: Push
// blocks on a full line until the drainer makes room. Zero leaves it
// unbounded.
func NewDelayLine(bound int, deliver func(types.GroupID, msg.Message)) *DelayLine {
	l := &DelayLine{
		bound:   bound,
		deliver: deliver,
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	l.space = sync.NewCond(&l.mu)
	return l
}

// Push queues m, tagged with group g, to be delivered delay from now or
// right after the message ahead of it, whichever is later. On a closed
// line m is recycled instead.
func (l *DelayLine) Push(delay time.Duration, g types.GroupID, m msg.Message) {
	l.mu.Lock()
	for l.bound > 0 && len(l.pending) >= l.bound && !l.closed {
		l.space.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		msg.Recycle(m)
		return
	}
	due := time.Now().Add(delay)
	if due.Before(l.lastDue) {
		due = l.lastDue
	}
	l.lastDue = due
	l.pending = append(l.pending, delayed{due: due, g: g, m: m})
	if !l.started {
		l.started = true
		go l.run()
	}
	if len(l.pending) == 1 {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	l.mu.Unlock()
}

// run is the drainer. The head of the line is the earliest-due message
// by construction, so it only ever waits for the head.
func (l *DelayLine) run() {
	defer close(l.done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		l.mu.Lock()
		if len(l.pending) == 0 {
			l.mu.Unlock()
			select {
			case <-l.wake:
				continue
			case <-l.quit:
				return
			}
		}
		d := l.pending[0]
		l.mu.Unlock()
		if wait := time.Until(d.due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-l.quit:
				return
			}
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		l.pending[0] = delayed{}
		l.pending = l.pending[1:]
		l.space.Signal()
		l.mu.Unlock()
		l.deliver(d.g, d.m)
	}
}

// Close discards and recycles every message still pending, unblocks
// senders waiting for room, and stops the drainer once a delivery it
// has under way returns. Idempotent.
func (l *DelayLine) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	pending, started := l.pending, l.started
	l.pending = nil
	l.space.Broadcast()
	l.mu.Unlock()
	close(l.quit)
	if started {
		<-l.done
	}
	for _, d := range pending {
		msg.Recycle(d.m)
	}
}
