package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// parkPeers registers an outbox with no write loop behind it for each
// peer, so frames queued to them stay put for the caller to inspect.
func parkPeers(ep *TCPEndpoint, ids ...types.ReplicaID) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for _, id := range ids {
		ep.peers[id] = &tcpPeer{outbox: make(chan *outFrame, ep.opts.OutboxLen)}
	}
}

// TestTCPBroadcastEncodesOnce proves the encode-once fan-out at the
// frame level: a broadcast to N peers must enqueue the exact same
// backing bytes (one encoded frame, refcounted) on every outbox.
func TestTCPBroadcastEncodesOnce(t *testing.T) {
	addrs := map[types.ReplicaID]string{
		0: "127.0.0.1:0", 1: "127.0.0.1:1", 2: "127.0.0.1:2", 3: "127.0.0.1:3",
	}
	ep := NewTCP(0, addrs, TCPOptions{DialRetry: time.Hour}) // never actually dials
	ep.SetHandler(func(types.ReplicaID, msg.Message) {})
	defer ep.Close()
	// A write loop would take the frame off its outbox before we look.
	parkPeers(ep, 1, 2, 3)

	dst := []types.ReplicaID{0, 1, 2, 3}
	ep.Broadcast(dst, &msg.Commit{Slot: 42})

	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.peers) != 3 {
		t.Fatalf("expected 3 peer queues (none for self), got %d", len(ep.peers))
	}
	var first *outFrame
	for id, p := range ep.peers {
		select {
		case f := <-p.outbox:
			if first == nil {
				first = f
			} else if f != first {
				t.Errorf("peer %v got a distinct frame: broadcast encoded more than once", id)
			}
		default:
			t.Errorf("peer %v outbox empty", id)
		}
	}
	if first == nil {
		t.Fatal("no frame enqueued")
	}
	if got := first.refs.Load(); got != 3 {
		t.Errorf("frame refcount = %d, want 3", got)
	}
	// The frame must carry a well-formed length prefix + message.
	if n := binary.LittleEndian.Uint32(first.data); int(n) != len(first.data)-4 {
		t.Errorf("frame length prefix %d, want %d", n, len(first.data)-4)
	}
	if _, err := msg.Decode(first.data[4:]); err != nil {
		t.Errorf("frame body does not decode: %v", err)
	}
}

// TestTCPWriteCoalescing asserts that frames queued together leave in
// one flush: the sender queues a burst while the peer is unreachable,
// and once the connection is up the whole burst must go out in a single
// buffered write.
func TestTCPWriteCoalescing(t *testing.T) {
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a := NewTCP(0, addrs, TCPOptions{DialRetry: 20 * time.Millisecond})
	a.SetHandler(func(types.ReplicaID, msg.Message) {})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addrs[0] = a.Addr()

	// Reserve an address for b without a listener behind it yet.
	probe := NewTCP(1, addrs, TCPOptions{})
	probe.SetHandler(func(types.ReplicaID, msg.Message) {})
	if err := probe.Start(); err != nil {
		t.Fatal(err)
	}
	addrs[1] = probe.Addr()
	probe.Close()

	const burst = 20
	for i := uint64(0); i < burst; i++ {
		a.Send(1, &msg.Commit{Slot: i})
	}

	col := &collector{}
	b := NewTCP(1, addrs, TCPOptions{DialRetry: 20 * time.Millisecond})
	b.SetHandler(col.handler())
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	waitFor(t, func() bool { return col.count() == burst }, 5*time.Second)
	frames, flushes := a.WireStats()
	if frames != burst {
		t.Fatalf("framesSent = %d, want %d", frames, burst)
	}
	if flushes != 1 {
		t.Errorf("flushes = %d, want 1 (whole burst coalesced into one write)", flushes)
	}
	// Order must survive coalescing.
	col.mu.Lock()
	defer col.mu.Unlock()
	for i, s := range col.slots {
		if s != uint64(i) {
			t.Fatalf("FIFO violated at %d: got slot %d", i, s)
		}
	}
}

// TestTCPRejectsUnknownHandshake checks that an inbound connection
// claiming a replica ID outside the address map is dropped before any
// frame is processed.
func TestTCPRejectsUnknownHandshake(t *testing.T) {
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	var mu sync.Mutex
	delivered := 0
	ep := NewTCP(0, addrs, TCPOptions{})
	ep.SetHandler(func(types.ReplicaID, msg.Message) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	if err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	send := func(id int32) net.Conn {
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var hs [4]byte
		binary.LittleEndian.PutUint32(hs[:], uint32(id))
		conn.Write(hs[:])
		body := msg.Encode(&msg.Commit{Slot: 1})
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(body)))
		conn.Write(lenBuf[:])
		conn.Write(body)
		return conn
	}

	// Unknown replica 99 and the endpoint's own ID must both be rejected.
	bad1 := send(99)
	defer bad1.Close()
	bad2 := send(0)
	defer bad2.Close()
	// A valid peer still gets through.
	good := send(1)
	defer good.Close()

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return delivered >= 1 }, 2*time.Second)
	time.Sleep(50 * time.Millisecond) // grace for any (wrong) late delivery
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Errorf("delivered %d messages, want 1 (unknown handshakes must be dropped)", delivered)
	}
}

// TestInprocBroadcastIsolation checks the hub's encode-once broadcast
// still hands every recipient its own copy in codec mode.
func TestInprocBroadcastIsolation(t *testing.T) {
	h := NewHub(3, HubOptions{Codec: true})
	defer h.Close()
	var mu sync.Mutex
	got := make(map[types.ReplicaID]*msg.Prepare)
	for i := types.ReplicaID(1); i <= 2; i++ {
		i := i
		h.Endpoint(i).SetHandler(func(from types.ReplicaID, m msg.Message) {
			mu.Lock()
			got[i] = m.(*msg.Prepare)
			mu.Unlock()
		})
		if err := h.Endpoint(i).Start(); err != nil {
			t.Fatal(err)
		}
	}
	h.Endpoint(0).SetHandler(func(types.ReplicaID, msg.Message) {})
	if err := h.Endpoint(0).Start(); err != nil {
		t.Fatal(err)
	}

	sent := &msg.Prepare{TS: types.Timestamp{Wall: 1}, Cmd: types.Command{Payload: []byte("abc")}}
	bc := h.Endpoint(0).(Broadcaster)
	bc.Broadcast([]types.ReplicaID{0, 1, 2}, sent)

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 2 }, time.Second)
	mu.Lock()
	defer mu.Unlock()
	if got[1] == got[2] {
		t.Error("broadcast shared one message instance across recipients")
	}
	if got[1] == sent || got[2] == sent {
		t.Error("broadcast shared the sender's message instance")
	}
	sent.Cmd.Payload[0] = 'x'
	if string(got[1].Cmd.Payload) != "abc" || string(got[2].Cmd.Payload) != "abc" {
		t.Error("broadcast shared the payload buffer")
	}
}

// BenchmarkTCPBroadcastEncode measures the send-side cost of an
// N-peer broadcast (no live connections: frames land in outboxes and
// are drained/released by this benchmark, isolating encode+enqueue).
func BenchmarkTCPBroadcastEncode(b *testing.B) {
	addrs := map[types.ReplicaID]string{
		0: "127.0.0.1:1", 1: "127.0.0.1:2", 2: "127.0.0.1:3", 3: "127.0.0.1:4", 4: "127.0.0.1:5",
	}
	ep := NewTCP(0, addrs, TCPOptions{DialRetry: time.Hour, OutboxLen: 16})
	ep.SetHandler(func(types.ReplicaID, msg.Message) {})
	defer ep.Close()
	parkPeers(ep, 1, 2, 3, 4)
	dst := []types.ReplicaID{0, 1, 2, 3, 4}
	m := &msg.Prepare{
		Epoch: 1,
		TS:    types.Timestamp{Wall: 12345, Node: 0},
		Cmd:   types.Command{ID: types.CommandID{Origin: 0, Seq: 1}, Payload: make([]byte, 100)},
	}
	drain := func() {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		for _, p := range ep.peers {
			for {
				select {
				case f := <-p.outbox:
					f.release()
					continue
				default:
				}
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.Broadcast(dst, m)
		if i%8 == 7 {
			b.StopTimer()
			drain()
			b.StartTimer()
		}
	}
	b.StopTimer()
	drain()
}
