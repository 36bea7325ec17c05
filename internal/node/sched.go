package node

import (
	"context"
	"sync"
	"time"
)

// sched is a Host's runtime, shared by all of its groups: the one quit
// signal, the event loops' WaitGroup and the one registry of armed
// timers. It is the only place in this package that reads wall time,
// arms a timer or starts a loop goroutine, so a second implementation
// can run a Host on virtual time.
type sched struct {
	quit  chan struct{}
	loops sync.WaitGroup
	once  sync.Once

	// timers holds the armed After timers so stop can cancel them:
	// without this, self-rescheduling protocol timers (CLOCKTIME, failure
	// detection, Rejoin retries) keep firing into a stopped host. stop
	// sets it to nil, which also refuses every later After.
	mu     sync.Mutex
	timers map[*time.Timer]struct{}
}

func newSched() *sched {
	return &sched{quit: make(chan struct{}), timers: make(map[*time.Timer]struct{})}
}

// now and since read the wall clock, for the sampled commit latency.
func (s *sched) now() time.Time                  { return time.Now() }
func (s *sched) since(t time.Time) time.Duration { return time.Since(t) }

// spawn runs loop on its own goroutine; stop waits for it to return.
func (s *sched) spawn(loop func()) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		loop()
	}()
}

// after queues fn on n's event loop once d elapsed, unless stop came
// first. After stop it arms nothing.
func (s *sched) after(d time.Duration, n *Node, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.timers == nil {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		// The lock orders this after t landed in the map, and after a
		// concurrent stop's cancellation sweep.
		s.mu.Lock()
		_, armed := s.timers[t]
		delete(s.timers, t)
		s.mu.Unlock()
		if armed {
			n.enqueue(event{fn: fn})
		}
	})
	s.timers[t] = struct{}{}
}

// sleep waits d, or returns ErrCanceled once ctx is done.
func (s *sched) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ErrCanceled
	case <-t.C:
		return nil
	}
}

// stop closes quit, waits for every loop to return and cancels every
// armed timer. Idempotent; concurrent callers return once it is done.
func (s *sched) stop() {
	s.once.Do(func() {
		close(s.quit)
		s.loops.Wait()
		s.mu.Lock()
		for t := range s.timers {
			t.Stop()
		}
		s.timers = nil
		s.mu.Unlock()
	})
}
