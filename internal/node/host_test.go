package node

import (
	"context"
	"net"
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
// the Propose client API of each group's node.
type hostCluster struct {
	hosts  []*Host
	stores [][]*kvstore.Store // [replica][group]
}

func newHostCluster(t *testing.T, n, groups int, mkTransport func(id types.ReplicaID) transport.Transport) *hostCluster {
	t.Helper()
	return newHostClusterOpts(t, n, HostOptions{Groups: groups}, mkTransport)
}

func newHostClusterOpts(t *testing.T, n int, opts HostOptions, mkTransport func(id types.ReplicaID) transport.Transport) *hostCluster {
	t.Helper()
	groups := opts.Groups
	c := &hostCluster{}
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	for i := 0; i < n; i++ {
		h, err := NewHost(types.ReplicaID(i), spec, mkTransport(types.ReplicaID(i)), opts)
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]*kvstore.Store, groups)
		for g := 0; g < groups; g++ {
			store := kvstore.New()
			stores[g] = store
			app := &rsm.App{SM: store}
			nd := h.Group(types.GroupID(g))
			nd.Bind(app)
			nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 5 * time.Millisecond}))
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
	fut, err := c.hosts[at].Group(g).Propose(ctx, payload)
	if err != nil {
		t.Fatalf("Propose on group %v: %v", g, err)
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("proposal on group %v: %v", g, err)
	}
	return res.Value
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

// TestHostPinnedGroups exercises the per-group CPU pinning path
// (thread-locking plus, on Linux, sched_setaffinity) end to end: pinned
// loops must commit and replicate like unpinned ones.
func TestHostPinnedGroups(t *testing.T) {
	const n, groups = 3, 2
	hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: groups})
	t.Cleanup(hub.Close)
	c := newHostClusterOpts(t, n, HostOptions{Groups: groups, PinGroups: true}, func(id types.ReplicaID) transport.Transport {
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
			nd.Bind(app)
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
	// A 1-group host must run over a transport with no group support.
	const n = 3
	hub := transport.NewHub(n, transport.HubOptions{})
	t.Cleanup(hub.Close)
	c := newHostCluster(t, n, 1, func(id types.ReplicaID) transport.Transport {
		return hub.Endpoint(id)
	})
	testHostGroupsIsolatedAndReplicated(t, c, 1)
}

func TestHostRejectsUngroupedTransport(t *testing.T) {
	hub := transport.NewHub(2, transport.HubOptions{Groups: 1})
	t.Cleanup(hub.Close)
	spec := []types.ReplicaID{0, 1}
	if _, err := NewHost(0, spec, hub.Endpoint(0), HostOptions{Groups: 4}); err == nil {
		t.Fatal("NewHost over a 1-group transport with Groups=4 succeeded")
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
