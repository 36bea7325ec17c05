package transport

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// downLog records an endpoint's PeerWatcher reports.
type downLog struct {
	mu  sync.Mutex
	ids []types.ReplicaID
}

func (d *downLog) add(k types.ReplicaID) {
	d.mu.Lock()
	d.ids = append(d.ids, k)
	d.mu.Unlock()
}

func (d *downLog) get() []types.ReplicaID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.ids)
}

// reservedAddrs returns two loopback addresses nothing listens at yet.
func reservedAddrs(t *testing.T) map[types.ReplicaID]string {
	t.Helper()
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	for id := range addrs {
		probe := NewTCP(id, addrs, TCPOptions{})
		probe.SetHandler(func(types.ReplicaID, msg.Message) {})
		if err := probe.Start(); err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr()
		probe.Close()
		addrs[id] = addr
	}
	return addrs
}

// watchedPair starts endpoint 0, which records its peer-down reports,
// and endpoint 1, which counts deliveries, at reserved addresses, and
// waits until 0's link to 1 is up.
func watchedPair(t *testing.T) (a, b *TCPEndpoint, downs *downLog, col *collector) {
	t.Helper()
	addrs := reservedAddrs(t)
	opts := TCPOptions{DialRetry: 20 * time.Millisecond}
	a, b = NewTCP(0, addrs, opts), NewTCP(1, addrs, opts)
	downs, col = &downLog{}, &collector{}
	a.WatchPeers(downs.add)
	a.SetHandler(func(types.ReplicaID, msg.Message) {})
	b.SetHandler(col.handler())
	for _, ep := range []*TCPEndpoint{a, b} {
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
	}
	a.Send(1, &msg.Commit{Slot: 1})
	waitFor(t, func() bool { return col.count() == 1 }, 5*time.Second)
	return a, b, downs, col
}

// sendFor keeps a sending to peer 1, as a replica's clock broadcast
// would, for d.
func sendFor(a *TCPEndpoint, d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		a.Send(1, &msg.ClockTime{TS: 1})
	}
}

// A peer whose endpoint closes (its process exits) breaks the link, and
// the immediate redial is refused: the watcher hears it once, however
// many refused redials follow.
func TestTCPPeerDownOnRefusedRedial(t *testing.T) {
	a, b, downs, _ := watchedPair(t)
	b.Close()
	for deadline := time.Now().Add(5 * time.Second); len(downs.get()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no peer-down report after the peer's endpoint closed")
		}
		sendFor(a, 5*time.Millisecond)
	}
	sendFor(a, 200*time.Millisecond) // ten refused redials
	if got := downs.get(); !slices.Equal(got, []types.ReplicaID{1}) {
		t.Fatalf("reports = %v, want exactly one for r1", got)
	}
	if n := a.Counters().PeerDowns; n != 1 {
		t.Fatalf("WireCounters.PeerDowns = %d, want 1", n)
	}
}

// A peer that is not listening yet at startup was never reached, so its
// refused dials are not a lost link: nothing is reported, before or after
// it comes up.
func TestTCPNoPeerDownBeforeFirstConnect(t *testing.T) {
	addrs := reservedAddrs(t)
	opts := TCPOptions{DialRetry: 20 * time.Millisecond}
	a := NewTCP(0, addrs, opts)
	downs := &downLog{}
	a.WatchPeers(downs.add)
	a.SetHandler(func(types.ReplicaID, msg.Message) {})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sendFor(a, 150*time.Millisecond) // refused dials while r1 is absent

	col := &collector{}
	b := NewTCP(1, addrs, opts)
	b.SetHandler(col.handler())
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitFor(t, func() bool { return col.count() > 0 }, 5*time.Second)
	if got := downs.get(); len(got) != 0 || a.Counters().PeerDowns != 0 {
		t.Fatalf("reports = %v for a peer that was never up, want none", got)
	}
}

// A live peer that resets the connection (its endpoint stays up) breaks
// the link, but the redial succeeds: nothing is reported and traffic
// resumes.
func TestTCPNoPeerDownWhenRedialSucceeds(t *testing.T) {
	a, b, downs, col := watchedPair(t)
	reset := map[net.Conn]bool{}
	b.mu.Lock()
	for c := range b.conns { // b never sent, so its only conn is a's inbound one
		reset[c] = true
		c.Close()
	}
	b.mu.Unlock()
	redialed := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		for c := range b.conns {
			if !reset[c] {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !redialed(); {
		if time.Now().After(deadline) {
			t.Fatal("a never redialed r1 after the reset")
		}
		sendFor(a, 5*time.Millisecond)
	}
	resumed := col.count()
	sendFor(a, 50*time.Millisecond)
	waitFor(t, func() bool { return col.count() > resumed }, 5*time.Second)
	if got := downs.get(); len(got) != 0 || a.Counters().PeerDowns != 0 {
		t.Fatalf("reports = %v after a reset the redial repaired, want none", got)
	}
}
