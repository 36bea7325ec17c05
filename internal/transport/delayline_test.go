package transport

import (
	"sync"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// lineSink records a delay line's deliveries with their arrival times.
type lineSink struct {
	mu    sync.Mutex
	ts    []int64
	times []time.Time
}

func (s *lineSink) deliver(_ types.GroupID, m msg.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ts = append(s.ts, m.(*msg.ClockTime).TS)
	s.times = append(s.times, time.Now())
}

func (s *lineSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ts)
}

func TestDelayLineClampsShorterDelay(t *testing.T) {
	sink := &lineSink{}
	l := NewDelayLine(0, sink.deliver)
	defer l.Close()
	start := time.Now()
	l.Push(50*time.Millisecond, 0, &msg.ClockTime{TS: 1})
	l.Push(0, 0, &msg.ClockTime{TS: 2}) // due at once, but queued behind TS 1
	waitFor(t, func() bool { return sink.count() == 2 }, 2*time.Second)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.ts[0] != 1 || sink.ts[1] != 2 {
		t.Fatalf("delivered %v, want [1 2]: a shorter delay overtook a longer one", sink.ts)
	}
	if d := sink.times[1].Sub(start); d < 50*time.Millisecond {
		t.Fatalf("second message delivered after %v, want its due clamped to the first's 50ms", d)
	}
}

func TestDelayLineFullBlocksSender(t *testing.T) {
	sink := &lineSink{}
	l := NewDelayLine(2, sink.deliver)
	defer l.Close()
	const delay = 100 * time.Millisecond
	start := time.Now()
	l.Push(delay, 0, &msg.ClockTime{TS: 1})
	l.Push(delay, 0, &msg.ClockTime{TS: 2})
	pushed := make(chan time.Time, 1)
	go func() {
		l.Push(0, 0, &msg.ClockTime{TS: 3}) // line full: waits for TS 1 to leave
		pushed <- time.Now()
	}()
	select {
	case at := <-pushed:
		// The drainer cannot pop TS 1 before it is due.
		if d := at.Sub(start); d < delay {
			t.Fatalf("push into a full line returned after %v, before the head was due (%v)", d, delay)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push into a full line never returned after the drainer made room")
	}
	waitFor(t, func() bool { return sink.count() == 3 }, 2*time.Second)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, ts := range sink.ts {
		if ts != int64(i+1) {
			t.Fatalf("delivered %v, want [1 2 3]", sink.ts)
		}
	}
}

func TestDelayLineCloseDiscardsAndRecycles(t *testing.T) {
	// A pooled message's storage is reused by a later decode only once it
	// is recycled, so seeing a discarded message overwritten proves Close
	// recycled it. The pool may hand the record to another processor, so
	// allow a few attempts.
	enc := func(ts int64) []byte { return msg.Encode(&msg.ClockTime{TS: ts}) }
	for attempt := 0; attempt < 20; attempt++ {
		sink := &lineSink{}
		l := NewDelayLine(0, sink.deliver)
		m, err := msg.DecodeRecycled(enc(1))
		if err != nil {
			t.Fatal(err)
		}
		l.Push(time.Hour, 0, m)
		start := time.Now()
		l.Close()
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Close took %v with a message pending", d)
		}
		if n := sink.count(); n != 0 {
			t.Fatalf("Close delivered %d pending messages, want 0", n)
		}
		l.Push(0, 0, &msg.ClockTime{TS: 9}) // closed line: dropped
		if n := sink.count(); n != 0 {
			t.Fatalf("closed line delivered %d messages, want 0", n)
		}
		reuse, err := msg.DecodeRecycled(enc(2))
		if err != nil {
			t.Fatal(err)
		}
		overwritten := m.(*msg.ClockTime).TS == 2
		msg.Recycle(reuse)
		if overwritten {
			return
		}
	}
	t.Fatal("a message discarded by Close was never reused: Close did not recycle it")
}
