package node

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/mencius"
	"clockrsm/internal/paxos"
	"clockrsm/internal/rsm"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// cluster wires n single-group hosts over an in-process hub running the
// given protocol constructor. Commands enter through each host's group-0
// node (nodes[i]), which is what Host.ProposeKey and Host.ReadKey route
// every key to on a single-group host.
type cluster struct {
	hub    *transport.Hub
	hosts  []*Host
	nodes  []*Node
	stores []*kvstore.Store
	orders [][]types.CommandID
	mu     sync.Mutex
}

func newCluster(t *testing.T, n int, lat *wan.Matrix,
	mk func(env rsm.Env, app *rsm.App) rsm.Protocol) *cluster {
	return newClusterWindow(t, n, lat, mk, 0)
}

// newClusterWindow is newCluster with, when window > 0, every node's
// in-flight window shrunk to that many slots before Start.
func newClusterWindow(t *testing.T, n int, lat *wan.Matrix,
	mk func(env rsm.Env, app *rsm.App) rsm.Protocol, window int) *cluster {
	t.Helper()
	c := &cluster{
		hub:    transport.NewHub(n, transport.HubOptions{Latency: lat}),
		orders: make([][]types.CommandID, n),
	}
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	t.Cleanup(func() {
		for _, h := range c.hosts {
			h.Stop()
		}
		c.hub.Close()
	})
	for i := 0; i < n; i++ {
		i := i
		h, err := NewHost(types.ReplicaID(i), spec, c.hub.Endpoint(types.ReplicaID(i)), HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		store := kvstore.New()
		c.stores = append(c.stores, store)
		nd := h.Group(0)
		if window > 0 {
			nd.window = make(chan struct{}, window)
		}
		app := &rsm.App{
			SM: store,
			OnCommit: func(ts types.Timestamp, cmd types.Command) {
				c.mu.Lock()
				c.orders[i] = append(c.orders[i], cmd.ID)
				c.mu.Unlock()
			},
		}
		if err := h.Bind(0, app); err != nil {
			t.Fatal(err)
		}
		nd.SetProtocol(mk(nd, app))
		c.hosts = append(c.hosts, h)
		c.nodes = append(c.nodes, nd)
	}
	for _, h := range c.hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// call proposes a command at a replica and waits for its reply.
func (c *cluster) call(t *testing.T, at types.ReplicaID, payload []byte) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fut, err := c.nodes[at].propose(ctx, payload)
	if err != nil {
		t.Fatalf("Propose at %v: %v", at, err)
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("proposal at %v: %v", at, err)
	}
	return res.Value
}

func protoMakers() map[string]func(env rsm.Env, app *rsm.App) rsm.Protocol {
	return map[string]func(env rsm.Env, app *rsm.App) rsm.Protocol{
		"clockrsm": func(env rsm.Env, app *rsm.App) rsm.Protocol {
			return core.New(env, app, core.Options{ClockTimeInterval: 5 * time.Millisecond})
		},
		"paxos-bcast": func(env rsm.Env, app *rsm.App) rsm.Protocol {
			return paxos.New(env, app, paxos.Options{Leader: 0, Broadcast: true})
		},
		"mencius-bcast": func(env rsm.Env, app *rsm.App) rsm.Protocol {
			return mencius.New(env, app)
		},
	}
}

func TestKVOverRealRuntime(t *testing.T) {
	lat := wan.Uniform(3, 2*time.Millisecond)
	for name, mk := range protoMakers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 3, lat, mk)
			c.call(t, 0, kvstore.Put("x", []byte("1")))
			if v := c.call(t, 1, kvstore.Get("x")); string(v) != "1" {
				t.Fatalf("GET x = %q, want 1", v)
			}
			if v := c.call(t, 2, kvstore.Put("x", []byte("2"))); string(v) != "1" {
				t.Fatalf("PUT returned %q, want previous 1", v)
			}
			if v := c.call(t, 0, kvstore.Get("x")); string(v) != "2" {
				t.Fatalf("GET x = %q, want 2", v)
			}
		})
	}
}

func TestConcurrentClientsTotalOrder(t *testing.T) {
	lat := wan.Uniform(3, time.Millisecond)
	for name, mk := range protoMakers() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 3, lat, mk)
			const perReplica = 30
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				for k := 0; k < 3; k++ { // 3 clients per replica
					wg.Add(1)
					go func(rep int) {
						defer wg.Done()
						for n := 0; n < perReplica/3; n++ {
							c.call(t, types.ReplicaID(rep), kvstore.Put("k", []byte{byte(n)}))
						}
					}(i)
				}
			}
			wg.Wait()
			// Let trailing commits land everywhere.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				c.mu.Lock()
				done := len(c.orders[0]) == 90 && len(c.orders[1]) == 90 && len(c.orders[2]) == 90
				c.mu.Unlock()
				if done {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			for i := 1; i < 3; i++ {
				if len(c.orders[i]) != len(c.orders[0]) {
					t.Fatalf("replica %d executed %d commands, replica 0 %d", i, len(c.orders[i]), len(c.orders[0]))
				}
				for j := range c.orders[i] {
					if c.orders[i][j] != c.orders[0][j] {
						t.Fatalf("%s: divergence at %d", name, j)
					}
				}
			}
		})
	}
}

func TestNodeOverTCP(t *testing.T) {
	addrs := map[types.ReplicaID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	spec := []types.ReplicaID{0, 1, 2}
	// Bind listeners one at a time so each node knows the others' ports.
	var hosts []*Host
	stores := make([]*kvstore.Store, 3)
	for i := 0; i < 3; i++ {
		ep := transport.NewTCP(types.ReplicaID(i), addrs, transport.TCPOptions{DialRetry: 20 * time.Millisecond})
		h, err := NewHost(types.ReplicaID(i), spec, ep, HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = kvstore.New()
		nd := h.Group(0)
		app := &rsm.App{SM: stores[i]}
		if err := h.Bind(0, app); err != nil {
			t.Fatal(err)
		}
		nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 5 * time.Millisecond}))
		hosts = append(hosts, h)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		addrs[types.ReplicaID(i)] = ep.Addr()
	}
	defer func() {
		for _, h := range hosts {
			h.Stop()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fut, err := hosts[0].ProposeKey(ctx, "greeting", kvstore.Put("greeting", []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatalf("no reply over TCP: %v", err)
	}
	// Every store converges.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, s := range stores {
			if v, _ := s.Lookup("greeting"); string(v) != "hello" {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("stores did not converge over TCP")
}

func TestNodeDoAndStopIdempotent(t *testing.T) {
	c := newCluster(t, 3, wan.Uniform(3, time.Millisecond), protoMakers()["clockrsm"])
	var epoch types.Epoch
	c.nodes[0].Do(func() {
		epoch = c.nodes[0].proto.(*core.Replica).Epoch()
	})
	if epoch != 0 {
		t.Errorf("epoch = %d", epoch)
	}
	c.hosts[0].Stop()
	c.hosts[0].Stop() // second Stop must not panic or hang
}

// TestNodeSurface pins the exported method set of *Node. Clients go
// through the Host; a Node exports only what protocol construction and
// the wiring code need. Adding a method here means arguing for it.
func TestNodeSurface(t *testing.T) {
	why := map[string]string{
		"ID":          "rsm.Env, for core.New",
		"Spec":        "rsm.Env, for core.New",
		"Clock":       "rsm.Env, for core.New",
		"Send":        "rsm.Env, for core.New",
		"After":       "rsm.Env, for core.New",
		"Log":         "rsm.Env, for core.New",
		"SendAll":     "rsm.Multicaster, core's one-encode fan-out",
		"SetProtocol": "wiring: bench and kvserver attach each group's protocol",
		"Rejoin":      "wiring: bench and kvserver rejoin a replica restarted from its log",
		"Do":          "loop-owned protocol reads (counters, debug state)",
		"Reconfigure": "the per-group operator primitive ReconfigureAll is built on",
	}
	typ := reflect.TypeOf((*Node)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		got = append(got, name)
		if _, ok := why[name]; !ok {
			t.Errorf("*Node exports %s: client calls belong on Host", name)
		}
	}
	if len(got) != len(why) {
		var want []string
		for name := range why {
			want = append(want, name)
		}
		sort.Strings(want)
		t.Errorf("*Node exports %v, want %v", got, want)
	}
}
