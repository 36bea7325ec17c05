package node

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/rsm"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// hostCluster wires n multi-group hosts over a shared-transport
// factory, one kvstore per (replica, group). Commands enter through
// each group's node directly, so a test can pick the group.
type hostCluster struct {
	hosts  []*Host
	stores [][]*kvstore.Store // [replica][group]
}

func newHostCluster(t *testing.T, n, groups int, mkTransport func(id types.ReplicaID) transport.Transport) *hostCluster {
	return newHostClusterWith(t, n, groups, mkTransport, core.Options{ClockTimeInterval: 5 * time.Millisecond})
}

// newHostClusterWith is newHostCluster running Clock-RSM with opts.
func newHostClusterWith(t *testing.T, n, groups int, mkTransport func(id types.ReplicaID) transport.Transport, opts core.Options) *hostCluster {
	t.Helper()
	c := &hostCluster{}
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	for i := 0; i < n; i++ {
		h, err := NewHost(types.ReplicaID(i), spec, mkTransport(types.ReplicaID(i)), HostOptions{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]*kvstore.Store, groups)
		for g := 0; g < groups; g++ {
			store := kvstore.New()
			stores[g] = store
			app := &rsm.App{SM: store}
			nd := h.Group(types.GroupID(g))
			if err := h.Bind(types.GroupID(g), app); err != nil {
				t.Fatal(err)
			}
			nd.SetProtocol(core.New(nd, app, opts))
		}
		c.hosts = append(c.hosts, h)
		c.stores = append(c.stores, stores)
	}
	t.Cleanup(func() {
		for _, h := range c.hosts {
			h.Stop()
		}
	})
	return c
}

func (c *hostCluster) start(t *testing.T) {
	t.Helper()
	for _, h := range c.hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
}

// call proposes a command on one group at one replica and waits for
// the result.
func (c *hostCluster) call(t *testing.T, at types.ReplicaID, g types.GroupID, payload []byte) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fut, err := c.hosts[at].Group(g).propose(ctx, payload)
	if err != nil {
		t.Fatalf("Propose on group %v: %v", g, err)
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("proposal on group %v: %v", g, err)
	}
	return res.Value
}

// keyIn returns a key h's routing table places in group g.
func keyIn(h *Host, g types.GroupID) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("key-%d", i); h.Table().Group(k) == g {
			return k
		}
	}
}

func testHostGroupsIsolatedAndReplicated(t *testing.T, c *hostCluster, groups int) {
	t.Helper()
	c.start(t)
	// The same key written in different groups must stay independent:
	// groups are separate state machines.
	for g := 0; g < groups; g++ {
		gid := types.GroupID(g)
		val := []byte{byte('A' + g)}
		c.call(t, 0, gid, kvstore.Put("shared-key", val))
		if v := c.call(t, 1, gid, kvstore.Get("shared-key")); string(v) != string(val) {
			t.Fatalf("group %v: GET = %q, want %q", gid, v, val)
		}
	}
	// Every replica's per-group store converges to its own group's value
	// and never sees a sibling group's write.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, stores := range c.stores {
			for g, s := range stores {
				if v, _ := s.Lookup("shared-key"); string(v) != string([]byte{byte('A' + g)}) {
					ok = false
				}
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("per-group stores did not converge")
}

func TestHostMultiGroupInproc(t *testing.T) {
	const n, groups = 3, 3
	hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: groups})
	t.Cleanup(hub.Close)
	c := newHostCluster(t, n, groups, func(id types.ReplicaID) transport.Transport {
		return hub.Endpoint(id)
	})
	testHostGroupsIsolatedAndReplicated(t, c, groups)
}

func TestHostMultiGroupTCP(t *testing.T) {
	const n, groups = 3, 2
	// Reserve every port before any endpoint exists: a started endpoint
	// dials from the address map, so the map must be complete and never
	// written again.
	addrs := make(map[types.ReplicaID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[types.ReplicaID(i)] = ln.Addr().String()
		ln.Close()
	}
	spec := []types.ReplicaID{0, 1, 2}
	c := &hostCluster{}
	for i := 0; i < n; i++ {
		ep := transport.NewTCP(types.ReplicaID(i), addrs, transport.TCPOptions{DialRetry: 20 * time.Millisecond, Groups: groups})
		h, err := NewHost(types.ReplicaID(i), spec, ep, HostOptions{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]*kvstore.Store, groups)
		for g := 0; g < groups; g++ {
			store := kvstore.New()
			stores[g] = store
			app := &rsm.App{SM: store}
			nd := h.Group(types.GroupID(g))
			if err := h.Bind(types.GroupID(g), app); err != nil {
				t.Fatal(err)
			}
			nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 5 * time.Millisecond}))
		}
		c.hosts = append(c.hosts, h)
		c.stores = append(c.stores, stores)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, h := range c.hosts {
			h.Stop()
		}
	})

	for g := 0; g < groups; g++ {
		gid := types.GroupID(g)
		val := []byte{byte('A' + g)}
		c.call(t, 0, gid, kvstore.Put("k", val))
		if v := c.call(t, 2, gid, kvstore.Get("k")); string(v) != string(val) {
			t.Fatalf("group %v over TCP: GET = %q, want %q", gid, v, val)
		}
	}
}

func TestHostSingleGroupPlainTransport(t *testing.T) {
	// A 1-group host runs over a hub built with default options.
	const n = 3
	hub := transport.NewHub(n, transport.HubOptions{})
	t.Cleanup(hub.Close)
	c := newHostCluster(t, n, 1, func(id types.ReplicaID) transport.Transport {
		return hub.Endpoint(id)
	})
	testHostGroupsIsolatedAndReplicated(t, c, 1)
}

// untagged hides every method of a transport but the plain Transport
// ones, so it cannot tag traffic with a group.
type untagged struct{ transport.Transport }

func TestHostRejectsUngroupedTransport(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{Groups: 1})
	t.Cleanup(hub.Close)
	spec := []types.ReplicaID{0, 1}
	if _, err := NewHost(0, spec, hub.Endpoint(0), HostOptions{Groups: 4}); err == nil {
		t.Fatal("NewHost over a 1-group transport with Groups=4 succeeded")
	}
	if _, err := NewHost(0, spec, untagged{hub.Endpoint(0)}, HostOptions{}); err == nil {
		t.Fatal("NewHost over a transport without group methods succeeded")
	}
}

func TestHostStartWithoutProtocol(t *testing.T) {
	hub := transport.NewHub(1, transport.HubOptions{Groups: 2})
	t.Cleanup(hub.Close)
	h, err := NewHost(0, []types.ReplicaID{0}, hub.Endpoint(0), HostOptions{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err == nil {
		t.Fatal("Start without protocols succeeded")
	}
	h.Stop()
	h.Stop() // idempotent
}

// TestHostSplit: a cluster wired the way these tests wire one — every
// group bound through Host.Bind, so every group has the resharding
// wrapper — splits live, and every key written before the split reads
// back linearizably at every host afterwards, the moved ones from the
// group they moved to.
func TestHostSplit(t *testing.T) {
	const n, groups = 3, 2
	hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: groups})
	t.Cleanup(hub.Close)
	c := newHostCluster(t, n, groups, func(id types.ReplicaID) transport.Transport {
		return hub.Endpoint(id)
	})
	c.start(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	keys := make([]string, 32)
	before := make([]types.GroupID, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("split-%d", i)
		before[i] = c.hosts[0].Table().Group(keys[i])
		if _, err := c.hosts[i%n].Execute(ctx, keys[i], kvstore.Put(keys[i], []byte(keys[i]))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.hosts[0].Split(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, k := range keys {
		if before[i] == 0 && c.hosts[0].Table().Group(k) == 1 {
			moved++
		}
	}
	if rep.Slots == 0 || rep.Pairs == 0 || moved == 0 {
		t.Fatalf("split moved %d slots, %d pairs, %d of the test keys; want some of each", rep.Slots, rep.Pairs, moved)
	}
	for _, h := range c.hosts {
		for _, k := range keys {
			res, err := h.ReadKey(ctx, k, kvstore.Get(k), Linearizable)
			if err != nil || string(res.Value) != k {
				t.Fatalf("host %v: read %s after split = %q, %v", h.ID(), k, res.Value, err)
			}
		}
	}
}

// applyOnly is a state machine with Apply and nothing else.
type applyOnly struct{}

func (applyOnly) Apply([]byte) []byte { return nil }

// TestHostBindRefusesApplyOnlyMachine: every bound group gets the
// resharding wrapper, which needs the whole reshard.Store, so Bind
// refuses a machine lacking part of it, names what is missing and
// leaves the app untouched; a kvstore binds.
func TestHostBindRefusesApplyOnlyMachine(t *testing.T) {
	hub := transport.NewHub(1, transport.HubOptions{})
	t.Cleanup(hub.Close)
	h, err := NewHost(0, []types.ReplicaID{0}, hub.Endpoint(0), HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	app := &rsm.App{SM: applyOnly{}}
	err = h.Bind(0, app)
	if err == nil {
		t.Fatal("Bind accepted an apply-only state machine")
	}
	if want := "lacks InstallPair, Query, Restore, Snapshot"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Bind error %q does not end with %q", err, want)
	}
	if app.SM != (applyOnly{}) || app.OnReply != nil || h.Group(0).sm != nil {
		t.Fatal("a refused Bind still wired the group")
	}
	if err := h.Bind(0, &rsm.App{SM: kvstore.New()}); err != nil {
		t.Fatalf("Bind refused a kvstore: %v", err)
	}
}

// groupEndpoint is what a hub endpoint implements.
type groupEndpoint interface {
	transport.GroupTransport
	transport.GroupBroadcaster
}

// watched is a hub endpoint that also watches peers; a test raises its
// peer-down reports by hand.
type watched struct {
	groupEndpoint
	down func(types.ReplicaID)
}

func (w *watched) WatchPeers(fn func(types.ReplicaID)) { w.down = fn }

// TestHostFansPeerDownOut: one transport report that a peer exited
// reaches every hosted group's protocol, so with a detector whose timeout
// alone would take an hour, every group reconfigures the peer out at once.
func TestHostFansPeerDownOut(t *testing.T) {
	const n, groups = 3, 2
	hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: groups})
	t.Cleanup(hub.Close)
	eps := make([]*watched, n)
	c := newHostClusterWith(t, n, groups, func(id types.ReplicaID) transport.Transport {
		eps[id] = &watched{groupEndpoint: hub.Endpoint(id).(groupEndpoint)}
		return eps[id]
	}, core.Options{ClockTimeInterval: 5 * time.Millisecond, SuspectTimeout: time.Hour, ConsensusRetry: 50 * time.Millisecond})
	c.start(t)
	if eps[0].down == nil {
		t.Fatal("NewHost did not watch its transport's peers")
	}
	c.hosts[2].Stop()
	eps[0].down(2)
	removed := func() bool {
		for _, h := range c.hosts[:2] {
			for _, gs := range h.Status().Groups {
				if MemberString(gs.Members) != "r0,r1" {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !removed(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("r2 still configured 5s after its exit was reported: %+v", c.hosts[0].Status().Groups)
		}
	}
}
