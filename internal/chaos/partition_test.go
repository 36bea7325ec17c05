package chaos

import (
	"sync"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// sinkTransport records every message handed to the wrapped endpoint,
// in order, so tests can assert exactly what survived the fault
// windows.
type sinkTransport struct {
	self types.ReplicaID

	mu   sync.Mutex
	sent []sunk
}

type sunk struct {
	to types.ReplicaID
	m  msg.Message
}

func (s *sinkTransport) Self() types.ReplicaID                            { return s.self }
func (s *sinkTransport) SetHandler(transport.Handler)                     {}
func (s *sinkTransport) Groups() int                                      { return 1 }
func (s *sinkTransport) SetGroupHandler(types.GroupID, transport.Handler) {}
func (s *sinkTransport) Start() error                                     { return nil }
func (s *sinkTransport) Close() error                                     { return nil }
func (s *sinkTransport) Send(to types.ReplicaID, m msg.Message)           { s.SendGroup(to, 0, m) }
func (s *sinkTransport) SendGroup(to types.ReplicaID, _ types.GroupID, m msg.Message) {
	s.mu.Lock()
	s.sent = append(s.sent, sunk{to: to, m: m})
	s.mu.Unlock()
}

func (s *sinkTransport) BroadcastGroup(dst []types.ReplicaID, g types.GroupID, m msg.Message) {
	for _, to := range dst {
		if to != s.self {
			s.SendGroup(to, g, m)
		}
	}
}

func (s *sinkTransport) snapshot() []sunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sunk(nil), s.sent...)
}

func ct(ts int64) *msg.ClockTime { return &msg.ClockTime{TS: ts} }

func TestPartitionPassThroughBeforeArm(t *testing.T) {
	sink := &sinkTransport{self: 0}
	eng := New(Schedule{Links: []LinkFault{
		{From: 0, To: 1, Kind: LinkDrop, At: 0, Duration: time.Hour},
	}})
	tr := eng.Transport(sink)
	tr.Send(1, ct(1))
	if got := sink.snapshot(); len(got) != 1 {
		t.Fatalf("unarmed chaos transport delivered %d messages, want 1", len(got))
	}
}

func TestPartitionOneWayDrop(t *testing.T) {
	sink := &sinkTransport{self: 0}
	eng := New(Schedule{Links: []LinkFault{
		{From: 0, To: 1, Kind: LinkDrop, At: 0, Duration: time.Hour},
	}})
	tr := eng.Transport(sink)
	eng.Arm()
	tr.Send(1, ct(1))                                       // dropped: faulted link
	tr.Send(2, ct(2))                                       // delivered: other link untouched
	tr.BroadcastGroup([]types.ReplicaID{0, 1, 2}, 0, ct(3)) // per-peer: only r2 gets it
	got := sink.snapshot()
	if len(got) != 2 || got[0].to != 2 || got[1].to != 2 {
		t.Fatalf("delivered %v, want exactly the two sends to replica 2", got)
	}
	if drops := eng.Counts()["link.drop"]; drops != 2 {
		t.Fatalf("link.drop = %d, want 2 (unicast + broadcast leg)", drops)
	}
}

func TestPartitionDropWindowClears(t *testing.T) {
	sink := &sinkTransport{self: 0}
	eng := New(Schedule{Links: []LinkFault{
		{From: 0, To: 1, Kind: LinkDrop, At: 0, Duration: 20 * time.Millisecond},
	}})
	tr := eng.Transport(sink)
	eng.Arm()
	tr.Send(1, ct(1))
	time.Sleep(40 * time.Millisecond)
	tr.Send(1, ct(2))
	got := sink.snapshot()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1 (window must clear)", len(got))
	}
	if cc, ok := got[0].m.(*msg.ClockTime); !ok || cc.TS != 2 {
		t.Fatalf("delivered %v, want the post-window message", got[0].m)
	}
}

func TestPartitionDelayPreservesFIFO(t *testing.T) {
	sink := &sinkTransport{self: 0}
	eng := New(Schedule{Links: []LinkFault{
		{From: 0, To: 1, Kind: LinkDelay, At: 0, Duration: 25 * time.Millisecond, Delay: 15 * time.Millisecond},
	}})
	tr := eng.Transport(sink)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	eng.Arm()
	const n = 8
	// Straddle the window edge: early sends are delayed, late ones are
	// not, and the queue must still deliver them in send order.
	for i := int64(1); i <= n; i++ {
		tr.Send(1, ct(i))
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(sink.snapshot()) == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d delayed messages delivered", len(sink.snapshot()), n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, s := range sink.snapshot() {
		if got := s.m.(*msg.ClockTime).TS; got != int64(i+1) {
			t.Fatalf("delivery %d carries TS %d: FIFO order broken", i, got)
		}
	}
	if delays := eng.Counts()["link.delay"]; delays == 0 {
		t.Fatal("no link.delay activations counted")
	}
}

func TestPartitionCloseDiscardsDelayed(t *testing.T) {
	sink := &sinkTransport{self: 0}
	eng := New(Schedule{Links: []LinkFault{
		{From: 0, To: 1, Kind: LinkDelay, At: 0, Duration: time.Hour, Delay: 500 * time.Millisecond},
	}})
	tr := eng.Transport(sink)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Arm()
	tr.Send(1, ct(1))
	time.Sleep(20 * time.Millisecond) // the drainer is now waiting on the message
	start := time.Now()
	tr.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v: it waited out the delay window", d)
	}
	if got := sink.snapshot(); len(got) != 0 {
		t.Fatalf("Close delivered %d delayed messages, want 0", len(got))
	}
}

// TestPartitionDelayOverLatencyHub stacks a LinkDelay window on a
// latency hub: both delays add up and the link stays FIFO.
func TestPartitionDelayOverLatencyHub(t *testing.T) {
	const base, extra = 20 * time.Millisecond, 30 * time.Millisecond
	lat := wan.NewMatrix(2)
	lat.Set(0, 1, base)
	hub := transport.NewHub(2, transport.HubOptions{Latency: lat})
	defer hub.Close()
	var mu sync.Mutex
	var got []int64
	var first time.Time
	hub.Endpoint(1).SetHandler(func(_ types.ReplicaID, m msg.Message) {
		mu.Lock()
		defer mu.Unlock()
		if len(got) == 0 {
			first = time.Now()
		}
		got = append(got, m.(*msg.ClockTime).TS)
	})
	if err := hub.Endpoint(1).Start(); err != nil {
		t.Fatal(err)
	}
	eng := New(Schedule{Links: []LinkFault{
		{From: 0, To: 1, Kind: LinkDelay, At: 0, Duration: time.Hour, Delay: extra},
	}})
	tr := eng.Transport(hub.Endpoint(0))
	tr.SetHandler(func(types.ReplicaID, msg.Message) {})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	eng.Arm()
	const n = 10
	start := time.Now()
	for i := int64(1); i <= n; i++ {
		tr.Send(1, ct(i))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := len(got) == n
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d messages delivered", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, ts := range got {
		if ts != int64(i+1) {
			t.Fatalf("delivered %v: FIFO order broken", got)
		}
	}
	if d := first.Sub(start); d < base+extra {
		t.Fatalf("first message delivered after %v, want at least %v (hub latency + link delay)", d, base+extra)
	}
}

// watchedSink is a sinkTransport that also watches peers.
type watchedSink struct {
	*sinkTransport
	down func(types.ReplicaID)
}

func (w *watchedSink) WatchPeers(fn func(types.ReplicaID)) { w.down = fn }

// The wrapper forwards the wrapped endpoint's peer-down reports, and is
// a harmless no-op over an endpoint that does not watch peers.
func TestTransportForwardsPeerWatcher(t *testing.T) {
	inner := &watchedSink{sinkTransport: &sinkTransport{self: 0}}
	var got []types.ReplicaID
	New(Schedule{}).Transport(inner).WatchPeers(func(k types.ReplicaID) { got = append(got, k) })
	if inner.down == nil {
		t.Fatal("WatchPeers did not reach the wrapped endpoint")
	}
	inner.down(2)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("reports through the wrapper = %v, want [r2]", got)
	}
	New(Schedule{}).Transport(&sinkTransport{self: 0}).WatchPeers(func(types.ReplicaID) {})
}
