// Package clock provides the loosely synchronized physical clock sources
// used by Clock-RSM (Section II-A). A clock only needs to provide
// monotonically increasing timestamps; the protocol's correctness does not
// depend on the synchronization precision. Skew, drift and clock
// anomalies are injected by internal/chaos.
package clock

import (
	"sync"
	"time"
)

// Clock yields physical timestamps in nanoseconds. Implementations must
// return strictly increasing values across successive calls from the same
// goroutine; Monotonic can wrap any Clock to enforce this.
type Clock interface {
	// Now returns the current physical clock reading in nanoseconds.
	Now() int64
}

// Func adapts a plain function to the Clock interface.
type Func func() int64

var _ Clock = Func(nil)

// Now implements Clock.
func (f Func) Now() int64 { return f() }

// System is a Clock backed by the operating system's real-time clock,
// the equivalent of clock_gettime in the paper's implementation.
type System struct{}

var _ Clock = System{}

// Now implements Clock.
func (System) Now() int64 { return time.Now().UnixNano() }

// Monotonic wraps an underlying clock and guarantees strictly increasing
// readings even if the underlying clock is stepped backwards (e.g. by an
// NTP adjustment) or returns duplicate values. It is safe for concurrent
// use.
type Monotonic struct {
	mu   sync.Mutex
	src  Clock
	last int64
}

var _ Clock = (*Monotonic)(nil)

// NewMonotonic returns a Monotonic view over src.
func NewMonotonic(src Clock) *Monotonic {
	return &Monotonic{src: src}
}

// Now implements Clock. If the source has not advanced since the previous
// call, the reading is bumped by one nanosecond.
func (m *Monotonic) Now() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.src.Now()
	if now <= m.last {
		now = m.last + 1
	}
	m.last = now
	return now
}

// Manual is a hand-advanced clock for tests.
type Manual struct {
	mu  sync.Mutex
	now int64
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at now.
func NewManual(now int64) *Manual { return &Manual{now: now} }

// Now implements Clock.
func (m *Manual) Now() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d nanoseconds. Negative deltas are
// allowed so tests can exercise monotonic guards.
func (m *Manual) Advance(d int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now += d
}

// Set moves the clock to an absolute reading.
func (m *Manual) Set(now int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}
