package transport

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// groupCollector records deliveries per group.
type groupCollector struct {
	mu    sync.Mutex
	slots map[types.GroupID][]uint64
}

func newGroupCollector() *groupCollector {
	return &groupCollector{slots: make(map[types.GroupID][]uint64)}
}

func (c *groupCollector) handler(g types.GroupID) Handler {
	return func(from types.ReplicaID, m msg.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.slots[g] = append(c.slots[g], m.(*msg.Commit).Slot)
	}
}

func (c *groupCollector) count(g types.GroupID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots[g])
}

// TestGroupFrameRoundTrip pins the frame layout: the encoded
// bytes split back into the same group tag and a body that decodes to
// an identical message.
func TestGroupFrameRoundTrip(t *testing.T) {
	for _, g := range []types.GroupID{0, 1, 7, MaxGroups - 1} {
		want := &msg.Prepare{
			Epoch: 3,
			TS:    types.Timestamp{Wall: 123456789, Node: 2},
			Cmd:   types.Command{ID: types.CommandID{Origin: 2, Seq: 42}, Payload: []byte("payload")},
		}
		f := newFrame(want, 1, g)
		n := binary.LittleEndian.Uint32(f.data)
		if int(n) != len(f.data)-4 {
			t.Fatalf("group %v: frame length %d, body %d", g, n, len(f.data)-4)
		}
		gotG, body, err := splitGroupBody(f.data[4:])
		if err != nil {
			t.Fatalf("group %v: split: %v", g, err)
		}
		if gotG != g {
			t.Fatalf("group tag %v, want %v", gotG, g)
		}
		m, err := msg.Decode(body)
		if err != nil {
			t.Fatalf("group %v: decode: %v", g, err)
		}
		got := m.(*msg.Prepare)
		if got.Epoch != want.Epoch || got.TS != want.TS || got.Cmd.ID != want.Cmd.ID || string(got.Cmd.Payload) != string(want.Cmd.Payload) {
			t.Fatalf("round trip mutated message: %+v != %+v", got, want)
		}
		f.release()
	}
}

func TestSplitGroupBodyRejects(t *testing.T) {
	if _, _, err := splitGroupBody([]byte{1, 2}); err == nil {
		t.Error("short body accepted")
	}
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:], MaxGroups)
	if _, _, err := splitGroupBody(b[:]); err == nil {
		t.Error("overflowing group tag accepted")
	}
	binary.LittleEndian.PutUint32(b[:], MaxGroups-1)
	if _, _, err := splitGroupBody(b[:]); err != nil {
		t.Errorf("maximal valid group rejected: %v", err)
	}
}

// FuzzGroupFrame feeds arbitrary frame bodies through the frame
// parsing path (group split + message decode): it must never panic and
// must reject anything it cannot round-trip.
func FuzzGroupFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	var huge [8]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<31)
	f.Add(huge[:])
	fr := newFrame(&msg.Commit{Slot: 9}, 1, 3)
	f.Add(append([]byte(nil), fr.data[4:]...))
	fr.release()
	f.Fuzz(func(t *testing.T, body []byte) {
		g, rest, err := splitGroupBody(body)
		if err != nil {
			return
		}
		if g < 0 || g >= MaxGroups {
			t.Fatalf("split accepted out-of-range group %v", g)
		}
		if m, err := msg.Decode(rest); err == nil && m == nil {
			t.Fatal("decode returned nil message without error")
		}
	})
}

func TestTCPGroupDemuxAndFIFO(t *testing.T) {
	const groups = 3
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a := NewTCP(0, addrs, TCPOptions{DialRetry: 20 * time.Millisecond, Groups: groups})
	b := NewTCP(1, addrs, TCPOptions{DialRetry: 20 * time.Millisecond, Groups: groups})
	col := newGroupCollector()
	for g := 0; g < groups; g++ {
		a.SetGroupHandler(types.GroupID(g), func(types.ReplicaID, msg.Message) {})
		b.SetGroupHandler(types.GroupID(g), col.handler(types.GroupID(g)))
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs[0], addrs[1] = a.Addr(), b.Addr()

	const per = 50
	for i := uint64(0); i < per; i++ {
		for g := 0; g < groups; g++ {
			// Slot encodes (group, seq) so cross-group bleed is detectable.
			a.SendGroup(1, types.GroupID(g), &msg.Commit{Slot: uint64(g)*1000 + i})
		}
	}
	waitFor(t, func() bool {
		for g := 0; g < groups; g++ {
			if col.count(types.GroupID(g)) != per {
				return false
			}
		}
		return true
	}, 5*time.Second)
	col.mu.Lock()
	defer col.mu.Unlock()
	for g := 0; g < groups; g++ {
		for i, s := range col.slots[types.GroupID(g)] {
			if s != uint64(g)*1000+uint64(i) {
				t.Fatalf("group %d: slot[%d] = %d (demux or FIFO broken)", g, i, s)
			}
		}
	}
}

func TestTCPGroupBroadcastShared(t *testing.T) {
	const groups = 2
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	var eps []*TCPEndpoint
	cols := make([]*groupCollector, 3)
	for i := 0; i < 3; i++ {
		ep := NewTCP(types.ReplicaID(i), addrs, TCPOptions{DialRetry: 20 * time.Millisecond, Groups: groups})
		cols[i] = newGroupCollector()
		for g := 0; g < groups; g++ {
			ep.SetGroupHandler(types.GroupID(g), cols[i].handler(types.GroupID(g)))
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		addrs[types.ReplicaID(i)] = ep.Addr()
		eps = append(eps, ep)
	}
	dst := []types.ReplicaID{0, 1, 2}
	eps[0].BroadcastGroup(dst, 1, &msg.Commit{Slot: 77})
	waitFor(t, func() bool {
		return cols[1].count(1) == 1 && cols[2].count(1) == 1
	}, 5*time.Second)
	if cols[0].count(1) != 0 {
		t.Fatal("broadcast delivered to self")
	}
	if cols[1].count(0) != 0 || cols[2].count(0) != 0 {
		t.Fatal("broadcast bled into group 0")
	}
}

// dialV2 opens a raw connection claiming to be replica 0.
func dialV2(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hs [8]byte
	binary.LittleEndian.PutUint32(hs[:4], hsMagicV2)
	binary.LittleEndian.PutUint32(hs[4:], 0)
	if _, err := conn.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// writeV2Frame writes one raw frame.
func writeV2Frame(t *testing.T, conn net.Conn, g uint32, m msg.Message) {
	t.Helper()
	body := binary.LittleEndian.AppendUint32(nil, g)
	body = msg.EncodeTo(body, m)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

func TestTCPOverflowingGroupKillsConnection(t *testing.T) {
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	b := NewTCP(1, addrs, TCPOptions{Groups: 2})
	col := newGroupCollector()
	b.SetGroupHandler(0, col.handler(0))
	b.SetGroupHandler(1, col.handler(1))
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	conn := dialV2(t, b.Addr())
	defer conn.Close()
	writeV2Frame(t, conn, MaxGroups+17, &msg.Commit{Slot: 1})
	// The endpoint must drop the connection: the next read sees EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection still open after corrupt group tag (read err %v)", err)
	}
	if col.count(0) != 0 || col.count(1) != 0 {
		t.Fatal("corrupt frame was delivered")
	}
}

func TestTCPUnknownGroupDropped(t *testing.T) {
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	b := NewTCP(1, addrs, TCPOptions{Groups: 2})
	col := newGroupCollector()
	b.SetGroupHandler(0, col.handler(0))
	b.SetGroupHandler(1, col.handler(1))
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	conn := dialV2(t, b.Addr())
	defer conn.Close()
	// Group 1000 is well-formed but not hosted: dropped, connection
	// survives and the following group-0 frame is delivered.
	writeV2Frame(t, conn, 1000, &msg.Commit{Slot: 5})
	writeV2Frame(t, conn, 0, &msg.Commit{Slot: 6})
	waitFor(t, func() bool { return col.count(0) == 1 }, 5*time.Second)
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.slots[0][0] != 6 {
		t.Fatalf("got slot %d, want 6", col.slots[0][0])
	}
	if len(col.slots[1]) != 0 {
		t.Fatal("unhosted group delivered")
	}
}

func TestInprocGroupDemux(t *testing.T) {
	const groups = 2
	h := NewHub(2, HubOptions{Codec: true, Groups: groups})
	defer h.Close()
	ep0 := h.Endpoint(0).(*inprocEndpoint)
	ep1 := h.Endpoint(1).(*inprocEndpoint)
	col := newGroupCollector()
	for g := 0; g < groups; g++ {
		ep0.SetGroupHandler(types.GroupID(g), func(types.ReplicaID, msg.Message) {})
		ep1.SetGroupHandler(types.GroupID(g), col.handler(types.GroupID(g)))
	}
	if err := ep0.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Start(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		ep0.SendGroup(1, 0, &msg.Commit{Slot: i})
		ep0.BroadcastGroup([]types.ReplicaID{0, 1}, 1, &msg.Commit{Slot: 100 + i})
	}
	waitFor(t, func() bool { return col.count(0) == 20 && col.count(1) == 20 }, 5*time.Second)
	col.mu.Lock()
	defer col.mu.Unlock()
	for i := 0; i < 20; i++ {
		if col.slots[0][i] != uint64(i) || col.slots[1][i] != uint64(100+i) {
			t.Fatalf("demux mixed groups at %d: %v / %v", i, col.slots[0][i], col.slots[1][i])
		}
	}
	// Sends to unconfigured groups are dropped, not panics.
	ep0.SendGroup(1, 99, &msg.Commit{Slot: 1})
	ep0.BroadcastGroup([]types.ReplicaID{0, 1}, -1, &msg.Commit{Slot: 1})
}

// TestTCPGroupNoHeadOfLineBlocking pins the grouped read path's
// independence: a group whose handler stalls must not stop sibling
// groups' traffic arriving over the same connection.
func TestTCPGroupNoHeadOfLineBlocking(t *testing.T) {
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	a := NewTCP(0, addrs, TCPOptions{DialRetry: 20 * time.Millisecond, Groups: 2})
	b := NewTCP(1, addrs, TCPOptions{DialRetry: 20 * time.Millisecond, Groups: 2})
	for g := range b.inboxes {
		b.inboxes[g] = make(chan inDelivery, 4) // tiny, so group 0 overflows
	}
	for g := 0; g < 2; g++ {
		a.SetGroupHandler(types.GroupID(g), func(types.ReplicaID, msg.Message) {})
	}
	block := make(chan struct{})
	b.SetGroupHandler(0, func(types.ReplicaID, msg.Message) { <-block })
	col := newGroupCollector()
	b.SetGroupHandler(1, col.handler(1))
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer close(block)
	addrs[0], addrs[1] = a.Addr(), b.Addr()

	// Far more group-0 messages than group 0's delivery queue holds,
	// while its handler is wedged…
	for i := uint64(0); i < 64; i++ {
		a.SendGroup(1, 0, &msg.Commit{Slot: i})
	}
	// …must not stop group 1's traffic on the same connection. Group 1
	// makes progress (its own burst may shed overflow — that's the
	// intended best-effort behaviour — but it is never wedged behind
	// group 0).
	waitFor(t, func() bool {
		a.SendGroup(1, 1, &msg.Commit{Slot: 100})
		return col.count(1) > 0
	}, 5*time.Second)
	if d := b.Counters().InboundDrops; d == 0 {
		t.Error("expected overflow drops on the wedged group, got none")
	}
}
