package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/rpc"
	"clockrsm/internal/rsm"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// countingSM wraps the key-value store and counts how many times each
// command payload was applied — the duplicate-execution detector for
// the failover tests. Every test write carries a unique value, so a
// payload applied twice at one replica is a resubmission bug.
type countingSM struct {
	*kvstore.Store
	mu      sync.Mutex
	applied map[string]int
}

func newCountingSM() *countingSM {
	return &countingSM{Store: kvstore.New(), applied: make(map[string]int)}
}

func (s *countingSM) Apply(cmd []byte) []byte {
	s.mu.Lock()
	s.applied[string(cmd)]++
	s.mu.Unlock()
	return s.Store.Apply(cmd)
}

func (s *countingSM) count(payload []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied[string(payload)]
}

// dups returns how many distinct payloads were applied more than once.
func (s *countingSM) dups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.applied {
		if c > 1 {
			n++
		}
	}
	return n
}

// cluster is a test cluster: n replicas, each with a front-door server.
type cluster struct {
	hosts []*node.Host
	srvs  []*rpc.Server
	addrs []string
	sms   []*countingSM
}

// startCluster runs an n-replica Clock-RSM cluster with an rpc.Server
// per replica. delta = 0 disables the CLOCKTIME broadcast (linearizable
// reads park forever on an idle cluster — the overload tests' lever).
func startCluster(t *testing.T, n int, delta time.Duration, srvOpts rpc.ServerOptions) *cluster {
	t.Helper()
	hub := transport.NewHub(n, transport.HubOptions{Codec: true})
	t.Cleanup(hub.Close)
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	cl := &cluster{}
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		h, err := node.NewHost(id, spec, hub.Endpoint(id), node.HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sm := newCountingSM()
		app := &rsm.App{SM: sm}
		nd := h.Group(0)
		if err := h.Bind(0, app); err != nil {
			t.Fatal(err)
		}
		nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: delta}))
		cl.hosts = append(cl.hosts, h)
		cl.sms = append(cl.sms, sm)
	}
	for _, h := range cl.hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, h := range cl.hosts {
			h.Stop()
		}
	})
	for i := 0; i < n; i++ {
		srv := rpc.NewServer(cl.hosts[i], srvOpts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		cl.srvs = append(cl.srvs, srv)
		cl.addrs = append(cl.addrs, ln.Addr().String())
	}
	return cl
}

func dialCluster(t *testing.T, cl *cluster, cfg Config) *Client {
	t.Helper()
	cfg.Addrs = cl.addrs
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientBasicOps(t *testing.T) {
	cl := startCluster(t, 3, 2*time.Millisecond, rpc.ServerOptions{
		Admin: func(ctx context.Context, line string) (string, bool) {
			return "OK " + line, true
		},
	})
	c := dialCluster(t, cl, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if prev, err := c.Put(ctx, "k", []byte("v1")); err != nil || prev != nil {
		t.Fatalf("Put: %q, %v", prev, err)
	}
	if v, err := c.Get(ctx, "k"); err != nil || string(v) != "v1" {
		t.Fatalf("Get: %q, %v", v, err)
	}
	if v, err := c.GetLin(ctx, "k"); err != nil || string(v) != "v1" {
		t.Fatalf("GetLin: %q, %v", v, err)
	}
	if v, err := c.GetSeq(ctx, "k"); err != nil || string(v) != "v1" {
		t.Fatalf("GetSeq: %q, %v", v, err)
	}
	if c.Session() == 0 {
		t.Fatal("GetSeq did not advance the session token")
	}
	if v, err := c.GetStale(ctx, "k", time.Minute); err != nil || string(v) != "v1" {
		t.Fatalf("GetStale: %q, %v", v, err)
	}
	if _, err := c.GetStale(ctx, "k", time.Nanosecond); !errors.Is(err, node.ErrTooStale) {
		t.Fatalf("GetStale(1ns): %v, want node.ErrTooStale", err)
	}
	if prev, err := c.Del(ctx, "k"); err != nil || string(prev) != "v1" {
		t.Fatalf("Del: %q, %v", prev, err)
	}
	if reply, err := c.Admin(ctx, "STATUS"); err != nil || reply != "OK STATUS" {
		t.Fatalf("Admin: %q, %v", reply, err)
	}
}

// TestClientRejectsOversizedRequest: a request whose frame the server
// would refuse fails at once with rpc.ErrBadRequest — a read is not
// resent on every reconnect until ctx expires, and a write does not
// surface as ErrConnLost — and the connection keeps serving.
func TestClientRejectsOversizedRequest(t *testing.T) {
	// The size check counts the frame from lengths; it must agree with
	// the encoder.
	req := rpc.Request{Verb: rpc.VPut, Key: []byte("k"), Value: []byte("vv")}
	if n := len(rpc.AppendRequest(nil, &req)) - 4; n != requestOverhead+3 {
		t.Fatalf("encoded request payload is %d bytes, requestOverhead predicts %d", n, requestOverhead+3)
	}

	cl := startCluster(t, 3, 2*time.Millisecond, rpc.ServerOptions{})
	c := dialCluster(t, cl, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	huge := strings.Repeat("k", rpc.MaxFrame)
	if _, err := c.GetLin(ctx, huge); !errors.Is(err, rpc.ErrBadRequest) {
		t.Fatalf("oversized GetLin: %v, want rpc.ErrBadRequest", err)
	}
	if _, err := c.Put(ctx, huge, nil); !errors.Is(err, rpc.ErrBadRequest) {
		t.Fatalf("oversized Put: %v, want rpc.ErrBadRequest", err)
	}
	if _, err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put after oversized requests: %v", err)
	}
}

// TestClientPipelines runs many concurrent callers over the one
// connection; all of them must complete.
func TestClientPipelines(t *testing.T) {
	cl := startCluster(t, 3, 2*time.Millisecond, rpc.ServerOptions{})
	c := dialCluster(t, cl, Config{Window: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const goroutines, each = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("key-%d", g)
				if _, err := c.Put(ctx, key, []byte(fmt.Sprintf("val-%d-%d", g, i))); err != nil {
					errs <- fmt.Errorf("put %d-%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		v, err := c.Get(ctx, fmt.Sprintf("key-%d", g))
		if err != nil || string(v) != fmt.Sprintf("val-%d-%d", g, each-1) {
			t.Fatalf("key-%d: %q, %v", g, v, err)
		}
	}
}

// TestClientOverloadTyped: a budget-capped server sheds the overflow
// with the typed overload error, which the client surfaces verbatim —
// no silent retry storm against a shedding server.
func TestClientOverloadTyped(t *testing.T) {
	const budget = 4
	// delta = 0: linearizable reads on an idle cluster park until the
	// server-side timeout, holding their admission slots — deterministic
	// overload.
	cl := startCluster(t, 3, 0, rpc.ServerOptions{
		MaxInFlight: budget, ConnInFlight: 64, Timeout: 500 * time.Millisecond,
	})
	c := dialCluster(t, cl, Config{Window: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const total = 4 * budget
	var overloaded, timedOut atomic32
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.GetLin(ctx, "k")
			switch {
			case errors.Is(err, rpc.ErrOverloaded):
				overloaded.add(1)
			case errors.Is(err, rpc.ErrTimeout):
				timedOut.add(1)
			case err != nil:
				t.Errorf("unexpected error: %v", err)
			default:
				t.Error("linearizable read served on an idle delta=0 cluster")
			}
		}()
	}
	wg.Wait()
	if got := overloaded.load(); got == 0 || got > total-budget {
		t.Fatalf("overloaded=%d, want in (0, %d]", got, total-budget)
	}
	if overloaded.load()+timedOut.load() != total {
		t.Fatalf("overloaded=%d timedOut=%d, want sum %d", overloaded.load(), timedOut.load(), total)
	}
	if cs := cl.srvs[0].Counters(); cs.Shed != int64(overloaded.load()) {
		t.Fatalf("server Shed=%d, client saw %d typed overloads", cs.Shed, overloaded.load())
	}
}

type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestClientResubmitsOnReconfiguration: the serving replica is
// reconfigured out mid-stream; the typed ErrNotInConfig responses are
// resubmit-safe, so the client fails over and resubmits invisibly —
// every write acked exactly once, zero duplicate executions.
func TestClientResubmitsOnReconfiguration(t *testing.T) {
	cl := startCluster(t, 3, 2*time.Millisecond, rpc.ServerOptions{})
	c := dialCluster(t, cl, Config{Window: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const goroutines, each = 4, 60
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	var acked sync.Map // payload string -> struct{}
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i == each/4 {
					once.Do(func() { close(started) })
				}
				key := fmt.Sprintf("key-%d", g)
				val := []byte(fmt.Sprintf("val-%d-%d", g, i))
				if _, err := c.Put(ctx, key, val); err != nil {
					errs <- fmt.Errorf("put %d-%d: %w", g, i, err)
					return
				}
				acked.Store(string(kvstore.Put(key, val)), struct{}{})
			}
		}(g)
	}

	// Mid-stream, reconfigure the client's replica out of the cluster.
	<-started
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := cl.hosts[1].ReconfigureAll(rctx, []types.ReplicaID{1, 2}); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	rcancel()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every acked write executed exactly once at the surviving replicas;
	// nothing executed twice anywhere.
	acked.Range(func(k, _ any) bool {
		if n := cl.sms[1].count([]byte(k.(string))); n != 1 {
			t.Fatalf("payload %q applied %d times at replica 1, want exactly 1", k, n)
		}
		return true
	})
	for i, sm := range cl.sms {
		if d := sm.dups(); d != 0 {
			t.Fatalf("replica %d executed %d payloads more than once", i, d)
		}
	}
}

// TestClientFailoverUnderKill: the serving replica's front door is
// killed mid-stream with requests in flight. Reads resubmit and
// succeed; writes that were on the wire fail with ErrConnLost (fate
// unknown — never resubmitted); everything acked executed exactly once;
// the session token stays monotonic across the failover.
func TestClientFailoverUnderKill(t *testing.T) {
	cl := startCluster(t, 3, 2*time.Millisecond, rpc.ServerOptions{})
	c := dialCluster(t, cl, Config{Window: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const goroutines, each = 4, 80
	var wg sync.WaitGroup
	var acked, unknown sync.Map // payload string -> struct{}
	killAt := make(chan struct{})
	var once sync.Once
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i == each/4 {
					once.Do(func() { close(killAt) })
				}
				key := fmt.Sprintf("key-%d", g)
				val := []byte(fmt.Sprintf("val-%d-%d", g, i))
				payload := string(kvstore.Put(key, val))
				switch _, err := c.Put(ctx, key, val); {
				case err == nil:
					acked.Store(payload, struct{}{})
				case errors.Is(err, ErrConnLost):
					// On the wire when the connection died: fate unknown, the
					// client correctly refused to resubmit.
					unknown.Store(payload, struct{}{})
				default:
					errs <- fmt.Errorf("put %d-%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	// Sequential readers: the session token must never regress, even
	// across the kill.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for i := 0; i < each; i++ {
				if _, err := c.GetSeq(ctx, "key-0"); err != nil {
					errs <- fmt.Errorf("getseq: %w", err)
					return
				}
				if s := c.Session(); s < last {
					errs <- fmt.Errorf("session token regressed: %d -> %d", last, s)
					return
				} else {
					last = s
				}
			}
		}()
	}

	<-killAt
	cl.srvs[0].Close() // kill the serving replica's front door mid-stream

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Zero duplicate executions, anywhere: acked writes exactly once,
	// unknown-fate writes at most once (never resubmitted).
	for i, sm := range cl.sms {
		if d := sm.dups(); d != 0 {
			t.Fatalf("replica %d executed %d payloads more than once", i, d)
		}
	}
	acked.Range(func(k, _ any) bool {
		if n := cl.sms[1].count([]byte(k.(string))); n != 1 {
			t.Fatalf("acked payload %q applied %d times at replica 1, want exactly 1", k, n)
		}
		return true
	})
	nUnknown := 0
	unknown.Range(func(k, _ any) bool {
		nUnknown++
		if n := cl.sms[1].count([]byte(k.(string))); n > 1 {
			t.Fatalf("unknown-fate payload %q applied %d times", k, n)
		}
		return true
	})
	t.Logf("failover: %d unknown-fate writes (ErrConnLost), session token ended at %d", nUnknown, c.Session())
}

// TestClientCloseUnblocks: Close fails outstanding requests instead of
// stranding their callers.
func TestClientCloseUnblocks(t *testing.T) {
	// Unreachable address: requests queue forever until Close.
	c, err := Dial(Config{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Put(context.Background(), "k", []byte("v"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Put hung across Close")
	}
}
