package rpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/rsm"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// startCluster runs an n-replica Clock-RSM cluster over the in-process
// hub and returns its hosts. Cleanup stops everything.
func startCluster(t *testing.T, n int, opts node.HostOptions) []*node.Host {
	t.Helper()
	hub := transport.NewHub(n, transport.HubOptions{Codec: true})
	t.Cleanup(hub.Close)
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	hosts := make([]*node.Host, n)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		h, err := node.NewHost(id, spec, hub.Endpoint(id), opts)
		if err != nil {
			t.Fatal(err)
		}
		app := &rsm.App{SM: kvstore.New()}
		nd := h.Group(0)
		if err := h.Bind(0, app); err != nil {
			t.Fatal(err)
		}
		nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 2 * time.Millisecond}))
		hosts[i] = h
	}
	for _, h := range hosts {
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Stop()
		}
	})
	return hosts
}

// startServer serves host's front door on a fresh loopback listener.
func startServer(t *testing.T, host *node.Host, opts ServerOptions) (*Server, string) {
	t.Helper()
	srv := NewServer(host, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// rawClient is a deliberately dumb test client: frames in, frames out,
// full control over pipelining — the admission tests need exact
// ordering the real client library's window would obscure.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	buf  []byte
	enc  []byte
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawClient{t: t, conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
	if err := WriteMagic(c.bw); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *rawClient) send(reqs ...*Request) {
	c.t.Helper()
	for _, r := range reqs {
		c.enc = AppendRequest(c.enc[:0], r)
		if _, err := c.bw.Write(c.enc); err != nil {
			c.t.Fatal(err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads one response, copying Value so it survives the next read.
func (c *rawClient) recv() (Response, error) {
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(c.br, &c.buf)
	if err != nil {
		return Response{}, err
	}
	var resp Response
	if err := DecodeResponse(payload, &resp); err != nil {
		return Response{}, err
	}
	if resp.Value != nil {
		resp.Value = append([]byte(nil), resp.Value...)
	}
	return resp, nil
}

func (c *rawClient) mustRecv() Response {
	c.t.Helper()
	resp, err := c.recv()
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	return resp
}

// warmWatermark commits one write and probes until the replica reports
// a non-zero executed watermark (the watermark only advances once the
// first command or CLOCKTIME round lands).
func warmWatermark(t *testing.T, c *rawClient) int64 {
	t.Helper()
	c.send(&Request{ID: 90, Verb: VPut, Key: []byte("warm"), Value: []byte("w")})
	if resp := c.mustRecv(); resp.Status != StatusOK {
		t.Fatalf("warm-up PUT: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.send(&Request{ID: 91, Verb: VGetS, Key: []byte("warm")})
		if resp := c.mustRecv(); resp.Status == StatusOK && resp.Watermark > 0 {
			return resp.Watermark
		}
		if time.Now().After(deadline) {
			t.Fatal("watermark never advanced")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerEndToEnd(t *testing.T) {
	hosts := startCluster(t, 3, node.HostOptions{})
	admin := func(ctx context.Context, line string) (string, bool) {
		if strings.HasPrefix(line, "STATUS") {
			return "OK status-reply", true
		}
		return "", false
	}
	_, addr := startServer(t, hosts[0], ServerOptions{Admin: admin})
	c := dialRaw(t, addr)

	// Replicated write, then every read tier against it.
	c.send(&Request{ID: 1, Verb: VPut, Key: []byte("k"), Value: []byte("v1")})
	if resp := c.mustRecv(); resp.ID != 1 || resp.Status != StatusOK {
		t.Fatalf("PUT: %+v", resp)
	}
	c.send(&Request{ID: 2, Verb: VGet, Key: []byte("k")})
	if resp := c.mustRecv(); resp.Status != StatusOK || string(resp.Value) != "v1" {
		t.Fatalf("GET: %+v", resp)
	}
	c.send(&Request{ID: 3, Verb: VGetL, Key: []byte("k")})
	if resp := c.mustRecv(); resp.Status != StatusOK || string(resp.Value) != "v1" || resp.Watermark == 0 {
		t.Fatalf("GETL: %+v", resp)
	}
	c.send(&Request{ID: 4, Verb: VGetS, Key: []byte("k")})
	resp := c.mustRecv()
	if resp.Status != StatusOK || string(resp.Value) != "v1" || resp.Watermark == 0 {
		t.Fatalf("GETS: %+v", resp)
	}
	// A session token from one response is honored on the next read: the
	// served watermark never regresses below the token.
	tok := resp.Watermark
	c.send(&Request{ID: 5, Verb: VGetS, Key: []byte("k"), Session: tok})
	if resp := c.mustRecv(); resp.Status != StatusOK || resp.Watermark < tok {
		t.Fatalf("GETS with token %d: %+v", tok, resp)
	}
	c.send(&Request{ID: 6, Verb: VGetA, Key: []byte("k"), MaxAge: int64(time.Minute)})
	if resp := c.mustRecv(); resp.Status != StatusOK || string(resp.Value) != "v1" {
		t.Fatalf("GETA: %+v", resp)
	}
	// Stale read with an impossible bound maps to the typed status.
	c.send(&Request{ID: 7, Verb: VGetA, Key: []byte("k"), MaxAge: 1})
	if resp := c.mustRecv(); resp.Status != StatusTooStale {
		t.Fatalf("GETA maxage=1ns: %+v, want StatusTooStale", resp)
	}
	c.send(&Request{ID: 8, Verb: VDel, Key: []byte("k")})
	if resp := c.mustRecv(); resp.Status != StatusOK || string(resp.Value) != "v1" {
		t.Fatalf("DEL: %+v", resp)
	}
	// Admin verbs route through the hook.
	c.send(&Request{ID: 9, Verb: VAdmin, Value: []byte("STATUS")})
	if resp := c.mustRecv(); resp.Status != StatusOK || string(resp.Value) != "OK status-reply" {
		t.Fatalf("ADMIN: %+v", resp)
	}
	c.send(&Request{ID: 10, Verb: VAdmin, Value: []byte("NOPE")})
	if resp := c.mustRecv(); resp.Status != StatusBadRequest {
		t.Fatalf("ADMIN unknown: %+v, want StatusBadRequest", resp)
	}
}

// TestServerPipelinesOutOfOrder pins the multiplexing contract: a slow
// request does not block a later fast one on the same connection.
func TestServerPipelinesOutOfOrder(t *testing.T) {
	hosts := startCluster(t, 3, node.HostOptions{})
	_, addr := startServer(t, hosts[0], ServerOptions{})
	c := dialRaw(t, addr)

	// Current watermark, to build a token ~300ms in the future (the
	// watermark is a physical-clock timestamp in nanoseconds).
	w := warmWatermark(t, c)
	future := w + int64(300*time.Millisecond)

	// Slow read first, fast write second — the write's response must
	// overtake the parked read.
	c.send(
		&Request{ID: 2, Verb: VGetS, Key: []byte("x"), Session: future},
		&Request{ID: 3, Verb: VPut, Key: []byte("x"), Value: []byte("v")},
	)
	first, second := c.mustRecv(), c.mustRecv()
	if first.ID != 3 || second.ID != 2 {
		t.Fatalf("completion order: got %d then %d, want 3 then 2 (out-of-order completion)", first.ID, second.ID)
	}
	if first.Status != StatusOK || second.Status != StatusOK {
		t.Fatalf("statuses: %+v / %+v", first, second)
	}
	if second.Watermark < future {
		t.Fatalf("parked read served at watermark %d < session token %d", second.Watermark, future)
	}
}

// TestAdmissionGlobalBudget overloads a budget-capped server with twice
// the global budget in pipelined requests: the overflow must shed with
// the typed status immediately, every admitted request must still be
// answered (zero lost acks), and the counters must add up.
func TestAdmissionGlobalBudget(t *testing.T) {
	const budget = 8
	hosts := startCluster(t, 3, node.HostOptions{})
	srv, addr := startServer(t, hosts[0], ServerOptions{MaxInFlight: budget, ConnInFlight: 4 * budget})
	c := dialRaw(t, addr)

	w := warmWatermark(t, c)
	future := w + int64(500*time.Millisecond)
	baseAccepted := srv.Counters().Accepted

	// 2× the global budget, pipelined in one burst. Each admitted read
	// parks ~500ms, so admission is full when the overflow arrives.
	const total = 2 * budget
	reqs := make([]*Request, total)
	for i := range reqs {
		reqs[i] = &Request{ID: uint64(100 + i), Verb: VGetS, Key: []byte("x"), Session: future}
	}
	c.send(reqs...)

	shed, ok := 0, 0
	answered := make(map[uint64]int)
	var sawInFlight int64
	for i := 0; i < total; i++ {
		if i == total-budget { // all sheds arrive before any admitted completes
			if cs := srv.Counters(); cs.InFlight > sawInFlight {
				sawInFlight = cs.InFlight
			}
		}
		resp := c.mustRecv()
		answered[resp.ID]++
		switch resp.Status {
		case StatusOverloaded:
			shed++
		case StatusOK:
			ok++
			if resp.Watermark < future {
				t.Fatalf("admitted read served early: watermark %d < %d", resp.Watermark, future)
			}
		default:
			t.Fatalf("unexpected status %v (id %d)", resp.Status, resp.ID)
		}
	}
	if shed != total-budget || ok != budget {
		t.Fatalf("shed=%d ok=%d, want shed=%d ok=%d", shed, ok, total-budget, budget)
	}
	for id, nresp := range answered {
		if nresp != 1 {
			t.Fatalf("request %d answered %d times", id, nresp)
		}
	}
	cs := srv.Counters()
	if cs.Shed != int64(total-budget) {
		t.Fatalf("Shed counter %d, want %d", cs.Shed, total-budget)
	}
	if got := cs.Accepted - baseAccepted; got != int64(budget) {
		t.Fatalf("Accepted counter grew %d, want %d", got, budget)
	}
	if cs.InFlight != 0 {
		t.Fatalf("InFlight counter %d after drain, want 0", cs.InFlight)
	}
	if sawInFlight != budget {
		t.Fatalf("saw in-flight %d while parked, want the full budget %d", sawInFlight, budget)
	}
}

// TestAdmissionConnBudget: the per-connection budget sheds even when
// the global budget has room, and a second connection is unaffected.
func TestAdmissionConnBudget(t *testing.T) {
	const connBudget = 4
	hosts := startCluster(t, 3, node.HostOptions{})
	srv, addr := startServer(t, hosts[0], ServerOptions{MaxInFlight: 1024, ConnInFlight: connBudget})
	c := dialRaw(t, addr)

	w := warmWatermark(t, c)
	future := w + int64(500*time.Millisecond)

	const total = 3 * connBudget
	reqs := make([]*Request, total)
	for i := range reqs {
		reqs[i] = &Request{ID: uint64(100 + i), Verb: VGetS, Key: []byte("x"), Session: future}
	}
	c.send(reqs...)

	// A fresh connection has its own budget: it must be served, not shed,
	// while the first connection's overflow is shedding.
	c2 := dialRaw(t, addr)
	c2.send(&Request{ID: 9000, Verb: VGetS, Key: []byte("x")})
	if resp := c2.mustRecv(); resp.Status != StatusOK {
		t.Fatalf("second connection: %+v, want OK", resp)
	}

	shed, ok := 0, 0
	for i := 0; i < total; i++ {
		switch resp := c.mustRecv(); resp.Status {
		case StatusOverloaded:
			shed++
		case StatusOK:
			ok++
		default:
			t.Fatalf("unexpected status %v", resp.Status)
		}
	}
	if ok != connBudget || shed != total-connBudget {
		t.Fatalf("ok=%d shed=%d, want ok=%d shed=%d", ok, shed, connBudget, total-connBudget)
	}
	if cs := srv.Counters(); cs.Shed != int64(total-connBudget) {
		t.Fatalf("Shed counter %d, want %d", cs.Shed, total-connBudget)
	}
}

// TestServerRejectsBadOpens: wrong magic and malformed frames drop the
// connection instead of wedging the server.
func TestServerRejectsBadOpens(t *testing.T) {
	hosts := startCluster(t, 3, node.HostOptions{})
	_, addr := startServer(t, hosts[0], ServerOptions{})

	// Line-protocol bytes on the RPC port: connection dropped.
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET key\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a non-RPC connection")
	}

	// Valid magic, then a garbage frame: one BadRequest reply, then EOF.
	// dialRaw buffered the magic; flush it together with the garbage.
	c := dialRaw(t, addr)
	garbage := []byte{9, 0, 0, 0, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8}
	c.bw.Write(garbage)
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp := c.mustRecv()
	if resp.Status != StatusBadRequest {
		t.Fatalf("garbage frame: %+v, want StatusBadRequest", resp)
	}
	if _, err := c.recv(); err == nil {
		t.Fatal("connection survived a framing error")
	}

	// Later connections still work.
	c3 := dialRaw(t, addr)
	c3.send(&Request{ID: 1, Verb: VGetS, Key: []byte("x")})
	if resp := c3.mustRecv(); resp.Status != StatusOK {
		t.Fatalf("post-garbage connection: %+v", resp)
	}
}

// TestServerCloseResolvesInFlight: closing the server mid-park must not
// strand the per-request goroutines (Close waits for them).
func TestServerCloseResolvesInFlight(t *testing.T) {
	hosts := startCluster(t, 3, node.HostOptions{})
	srv, addr := startServer(t, hosts[0], ServerOptions{})
	c := dialRaw(t, addr)

	w := warmWatermark(t, c)
	// Park a few reads far in the future, then pull the plug.
	for i := 0; i < 4; i++ {
		c.send(&Request{ID: uint64(10 + i), Verb: VGetS, Key: []byte("x"), Session: w + int64(time.Hour)})
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung with parked requests")
	}
	if cs := srv.Counters(); cs.Conns != 0 {
		t.Fatalf("Conns counter %d after Close, want 0", cs.Conns)
	}
}
