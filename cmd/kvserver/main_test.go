package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clockrsm/client"
	"clockrsm/internal/chaos"
	"clockrsm/internal/reshard"
	"clockrsm/internal/rpc"
)

// freePorts reserves n distinct loopback ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// replica is a kvserver config with the test defaults; startCluster
// fills in its ID and addresses.
func replica(groups int) serverConfig {
	return serverConfig{
		groups: groups, delta: 5 * time.Millisecond, clientTimeout: 30 * time.Second,
		fsync: "always",
	}
}

// startCluster runs one kvserver per config on loopback ports and
// returns a client pinned to each replica (see startServers).
// client.Dial retries until its replica is up, so nothing here waits.
// Cleanup closes the clients, then stops every server and waits for it.
func startCluster(t *testing.T, cfgs ...serverConfig) []*client.Client {
	t.Helper()
	startServers(t, cfgs)
	clients := make([]*client.Client, len(cfgs))
	for i := range cfgs {
		clients[i] = dial(t, cfgs[i])
	}
	return clients
}

// startServers runs one kvserver per config on loopback ports and
// returns each one's stop (see serve). It fills in each config's ID and
// addresses in place, so the caller can read them.
func startServers(t *testing.T, cfgs []serverConfig) []func() {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns a real TCP cluster")
	}
	ports := freePorts(t, 2*len(cfgs))
	peers := strings.Join(ports[:len(cfgs)], ",")
	stops := make([]func(), len(cfgs))
	for i := range cfgs {
		cfgs[i].id, cfgs[i].peers, cfgs[i].clientAddr = i, peers, ports[len(cfgs)+i]
		stops[i] = serve(t, cfgs[i])
	}
	return stops
}

// serve runs one kvserver until the returned stop (which waits for it to
// return) is called, or until the test ends.
func serve(t *testing.T, cfg serverConfig) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := run(ctx, cfg); ctx.Err() == nil {
			t.Errorf("replica %d: %v", cfg.id, err)
		}
	}()
	stop = sync.OnceFunc(func() { cancel(); <-done })
	t.Cleanup(stop)
	return stop
}

// dial returns a client pinned to cfg's replica, closed at cleanup
// (before the servers stop: cleanups run last-in first-out).
func dial(t *testing.T, cfg serverConfig) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Config{Addrs: []string{cfg.clientAddr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// want checks one client call's (value, error) result: no error and the
// value val, with "(nil)" standing for an absent key.
func want(t *testing.T, what, val string) func([]byte, error) {
	return func(got []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		s := string(got)
		if got == nil {
			s = "(nil)"
		}
		if s != val {
			t.Fatalf("%s = %q, want %q", what, s, val)
		}
	}
}

func TestKVServerEndToEnd(t *testing.T) { testKVServerEndToEnd(t, 1) }

// TestKVServerEndToEndSharded runs the same client script against a
// cluster hosting four key-sharded groups per replica: routing is
// transparent to clients and linearizable per key.
func TestKVServerEndToEndSharded(t *testing.T) { testKVServerEndToEnd(t, 4) }

func testKVServerEndToEnd(t *testing.T, groups int) {
	cs := startCluster(t, replica(groups), replica(groups), replica(groups))
	c0, c1 := cs[0], cs[1]
	ctx := testCtx(t)

	want(t, "PUT city", "(nil)")(c0.Put(ctx, "city", []byte("Lausanne")))
	want(t, "GET city", "Lausanne")(c0.Get(ctx, "city"))
	// Linearizable read via another replica.
	want(t, "GET city via r1", "Lausanne")(c1.Get(ctx, "city"))
	// Consistency-tiered reads, served from the stable prefix: the
	// write completed, so every level observes it at every replica.
	want(t, "GETL city", "Lausanne")(c1.GetLin(ctx, "city"))
	want(t, "GETS city", "Lausanne")(c1.GetSeq(ctx, "city"))
	if c1.Session() == 0 {
		t.Fatal("session token did not advance")
	}
	want(t, "GETA city 1h", "Lausanne")(c1.GetStale(ctx, "city", time.Hour))
	want(t, "unbounded GETA city", "Lausanne")(c1.GetStale(ctx, "city", 0))
	want(t, "DEL city", "Lausanne")(c1.Del(ctx, "city"))
	// A linearizable local read observes the delete that just completed
	// through this very client.
	want(t, "GETL after DEL", "(nil)")(c1.GetLin(ctx, "city"))

	// Spread writes over many keys so a sharded cluster exercises every
	// group, then read them back through another replica.
	for i := 0; i < 8; i++ {
		want(t, fmt.Sprintf("PUT k%d", i), "(nil)")(c0.Put(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))))
	}
	for i := 0; i < 8; i++ {
		want(t, fmt.Sprintf("GET k%d via r1", i), fmt.Sprintf("v%d", i))(c1.Get(ctx, fmt.Sprintf("k%d", i)))
	}
}

// TestKVServerRPCFrontDoor checks that -client is the binary front door
// and only that: a 2-group cluster serves data and admin verbs through
// client, STATUS carries the front door's admission counters, and bytes
// of the old line protocol get the connection dropped.
func TestKVServerRPCFrontDoor(t *testing.T) {
	cfgs := []serverConfig{replica(2), replica(2), replica(2)}
	cs := startCluster(t, cfgs...)
	c0, c2 := cs[0], cs[2]
	ctx := testCtx(t)

	want(t, "PUT city", "(nil)")(c0.Put(ctx, "city", []byte("Lausanne")))
	want(t, "GETL city via r2", "Lausanne")(c2.GetLin(ctx, "city"))
	want(t, "GETS city via r2", "Lausanne")(c2.GetSeq(ctx, "city"))
	if c2.Session() == 0 {
		t.Fatal("session token did not advance")
	}

	// STATUS carries the front door's admission counters. c0 holds the
	// serving replica's only connection, with work accepted on it.
	status, err := c0.Admin(ctx, "STATUS")
	if err != nil {
		t.Fatalf("STATUS: %v", err)
	}
	if !strings.Contains(status, "rpc=(conns=1 ") || !strings.Contains(status, "shed=0") {
		t.Fatalf("STATUS lacks live rpc counters: %q", status)
	}
	if !strings.Contains(status, "accepted=") || strings.Contains(status, "accepted=0 ") {
		t.Fatalf("STATUS shows no accepted rpc requests: %q", status)
	}
	if resp, err := c0.Admin(ctx, "MEMBERS"); err != nil || resp != "OK g0=r0,r1,r2 g1=r0,r1,r2" {
		t.Fatalf("MEMBERS: %q, %v", resp, err)
	}

	// A line-protocol command on the client port fails the connection
	// magic: the replica drops the connection without answering.
	conn, err := net.Dial("tcp", cfgs[1].clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, "GET city"); err != nil {
		t.Fatal(err)
	}
	wantDropped(t, conn, "line-protocol GET")
}

// TestKVServerLineLimits pins the request-size limits of the client
// port (the name predates the binary front door): a 200 KiB value, far
// over the 64 KiB a line scanner once capped commands at, round-trips;
// a request over rpc.MaxFrame draws the typed rpc.ErrBadRequest from the
// client instead of a lost connection; and a raw frame whose length
// prefix exceeds rpc.MaxFrame gets its connection dropped while the
// replica keeps serving everyone else.
func TestKVServerLineLimits(t *testing.T) {
	cfgs := []serverConfig{replica(1), replica(1), replica(1)}
	cs := startCluster(t, cfgs...)
	c0, c1 := cs[0], cs[1]
	ctx := testCtx(t)

	big := bytes.Repeat([]byte("x"), 200<<10)
	want(t, "PUT big", "(nil)")(c0.Put(ctx, "big", big))
	if v, err := c1.Get(ctx, "big"); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("GET big: %d bytes, %v", len(v), err)
	}

	// Never touched, so the OS backs it with no memory.
	huge := make([]byte, rpc.MaxFrame)
	if _, err := c0.Put(ctx, "huge", huge); !errors.Is(err, rpc.ErrBadRequest) {
		t.Fatalf("oversized PUT: %v, want rpc.ErrBadRequest", err)
	}
	want(t, "GET after oversized PUT", "(nil)")(c0.Get(ctx, "huge"))

	conn, err := net.Dial("tcp", cfgs[1].clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], rpc.MaxFrame+1)
	if err := rpc.WriteMagic(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	wantDropped(t, conn, "oversized frame")
	if v, err := c1.Get(ctx, "big"); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("GET big after oversized frame: %d bytes, %v", len(v), err)
	}
}

// wantDropped checks that the replica closes conn without a reply.
func wantDropped(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("%s: connection survived (read %d bytes, %v)", what, n, err)
	}
}

// TestKVServerChaosArmed starts one replica with a replayed fault
// schedule — a clock jump plus slow log appends, both benign to
// liveness — and checks that commands still commit and the injected
// faults surface in STATUS.
func TestKVServerChaosArmed(t *testing.T) {
	sched := chaos.Schedule{
		Clock: []chaos.ClockFault{{Replica: 0, Kind: chaos.ClockJump, At: 0, Duration: time.Hour, Magnitude: 5 * time.Millisecond}},
		Disk:  []chaos.DiskFault{{Replica: 0, Kind: chaos.DiskSlowAppend, At: 0, Duration: time.Hour, Stall: 200 * time.Microsecond}},
	}
	b, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	schedPath := filepath.Join(t.TempDir(), "sched.json")
	if err := os.WriteFile(schedPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cfgs := []serverConfig{replica(1), replica(1), replica(1)}
	for i := range cfgs {
		cfgs[i].fsync = "off"
	}
	cfgs[0].chaosSchedule = schedPath
	cfgs[0].logPath = filepath.Join(t.TempDir(), "wal") // disk faults wrap the file log
	c0 := startCluster(t, cfgs...)[0]
	ctx := testCtx(t)

	want(t, "PUT under chaos", "(nil)")(c0.Put(ctx, "k", []byte("v")))
	want(t, "GET under chaos", "v")(c0.Get(ctx, "k"))
	status, err := c0.Admin(ctx, "STATUS")
	if err != nil {
		t.Fatalf("STATUS: %v", err)
	}
	if !strings.Contains(status, "faults=(") ||
		!strings.Contains(status, "clock.jump=1") ||
		!strings.Contains(status, "disk.slow_append=") {
		t.Fatalf("STATUS does not surface injected faults: %q", status)
	}
}

func TestParseMembers(t *testing.T) {
	if ids, err := parseMembers("0,1,2"); err != nil || len(ids) != 3 || ids[2] != 2 {
		t.Errorf("parseMembers(0,1,2) = %v, %v", ids, err)
	}
	if ids, err := parseMembers("r0,R1,r2"); err != nil || len(ids) != 3 || ids[1] != 1 {
		t.Errorf("parseMembers(r0,R1,r2) = %v, %v", ids, err)
	}
	for _, bad := range []string{"", ",", "0,,1", "x", "r", "-1"} {
		if _, err := parseMembers(bad); err == nil {
			t.Errorf("parseMembers(%q) succeeded", bad)
		}
	}
}

// TestKVServerRestartRejoins restarts a replica over its log after the
// failure detector reconfigured it out: it replays, rejoins by itself
// (no operator verb) and serves the write it missed.
func TestKVServerRestartRejoins(t *testing.T) {
	dir := t.TempDir()
	cfgs := make([]serverConfig, 3)
	for i := range cfgs {
		cfgs[i] = replica(1)
		cfgs[i].suspect = 300 * time.Millisecond
		cfgs[i].logPath = filepath.Join(dir, fmt.Sprintf("r%d.log", i))
	}
	stops := startServers(t, cfgs)
	c0 := dial(t, cfgs[0])
	ctx := testCtx(t)
	want(t, "PUT city", "(nil)")(c0.Put(ctx, "city", []byte("Sion")))

	stops[2]()
	want(t, "PUT city with r2 down", "Sion")(c0.Put(ctx, "city", []byte("Chur")))

	serve(t, cfgs[2])
	// No traffic through r2 until it is back in: only its own rejoin can
	// re-admit it.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, err := c0.Admin(ctx, "MEMBERS")
		if err == nil && resp == "OK g0=r0,r1,r2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted r2 never rejoined: MEMBERS %q, %v", resp, err)
		}
	}
	want(t, "GETL city via restarted r2", "Chur")(dial(t, cfgs[2]).GetLin(ctx, "city"))
}

// TestKVServerAdminEndToEnd exercises the operator API over the wire on
// a 3-replica, 2-group cluster: status introspection, an atomic shrink
// to {0,1} and a grow back to {0,1,2}, with data commands committing
// before, between and after the reconfigurations.
func TestKVServerAdminEndToEnd(t *testing.T) {
	cs := startCluster(t, replica(2), replica(2), replica(2))
	c0, c2 := cs[0], cs[2]
	ctx := testCtx(t)
	admin := func(line string) string {
		t.Helper()
		reply, err := c0.Admin(ctx, line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return reply
	}

	want(t, "PUT city", "(nil)")(c0.Put(ctx, "city", []byte("Lugano")))
	if resp := admin("MEMBERS"); resp != "OK g0=r0,r1,r2 g1=r0,r1,r2" {
		t.Fatalf("MEMBERS = %q", resp)
	}
	if resp := admin("EPOCH"); resp != "OK g0=0 g1=0" {
		t.Fatalf("EPOCH = %q", resp)
	}
	if resp := admin("STATUS"); !strings.HasPrefix(resp, "OK id=r0 groups=2 routes=(version=1 groups=2 migrating=0) rpc=(") ||
		!strings.Contains(resp, ") g0=(epoch=0 members=r0,r1,r2 in=true") {
		t.Fatalf("STATUS = %q", resp)
	}
	if resp := admin("ROUTES"); resp != "OK version=1 slots=512 groups=2 g0=256 g1=256 migrating=0" {
		t.Fatalf("ROUTES = %q", resp)
	}

	// Shrink to {0,1}: both groups move atomically.
	if resp := admin("RECONF 0,1"); resp != "OK members=r0,r1 epochs=g0:1,g1:1" {
		t.Fatalf("RECONF shrink = %q", resp)
	}
	want(t, "GET after shrink", "Lugano")(c0.Get(ctx, "city"))
	want(t, "PUT after shrink", "Lugano")(c0.Put(ctx, "city", []byte("Basel")))

	// Grow back, r-prefixed IDs; the rejoined replica serves reads.
	if resp := admin("RECONF r0,r1,r2"); resp != "OK members=r0,r1,r2 epochs=g0:2,g1:2" {
		t.Fatalf("RECONF grow = %q", resp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c2.Get(ctx, "city")
		if err == nil && string(v) == "Basel" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined replica never served the value: %q, %v", v, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Malformed operator input is rejected without touching the cluster.
	if resp := admin("RECONF 0"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("sub-majority RECONF = %q", resp)
	}
	if resp := admin("RECONF x,y"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("garbage RECONF = %q", resp)
	}
	if resp := admin("EPOCH"); resp != "OK g0=2 g1=2" {
		t.Fatalf("EPOCH after failed RECONFs = %q", resp)
	}
}

func TestCheckGroupLayoutGuardsRegrouping(t *testing.T) {
	base := t.TempDir() + "/rsm.log"
	// A first start passes the check, then records the count.
	if err := checkGroupLayout(base, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := recordGroupLayout(base, 4); err != nil {
		t.Fatal(err)
	}
	// Same count restarts fine; a different count is refused.
	if err := checkGroupLayout(base, 4, nil); err != nil {
		t.Fatalf("same-count restart refused: %v", err)
	}
	if err := checkGroupLayout(base, 2, nil); err == nil {
		t.Fatal("regrouping 4 -> 2 over existing logs was allowed")
	}
	if err := checkGroupLayout(base, 1, nil); err == nil {
		t.Fatal("regrouping 4 -> 1 over existing logs was allowed")
	}
}

func TestCheckGroupLayoutFailedFirstStartLeavesNoMarker(t *testing.T) {
	// A start that fails after the check but before recordGroupLayout
	// must not block a retry with a different count.
	base := t.TempDir() + "/rsm.log"
	if err := checkGroupLayout(base, 5000, nil); err != nil {
		t.Fatal(err)
	}
	// No recordGroupLayout: startup died later (e.g. invalid flags).
	if err := checkGroupLayout(base, 4, nil); err != nil {
		t.Fatalf("retry after failed first start refused: %v", err)
	}
}

func TestCheckGroupLayoutLegacySingleGroupLog(t *testing.T) {
	base := t.TempDir() + "/rsm.log"
	// A non-empty pre-sharding log (no marker) must not be silently
	// abandoned by a multi-group start…
	if err := os.WriteFile(base, []byte("entries"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkGroupLayout(base, 4, nil); err == nil {
		t.Fatal("multi-group start over a legacy single-group log was allowed")
	}
	// …but a single-group start adopts it and records the marker.
	if err := checkGroupLayout(base, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := recordGroupLayout(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := checkGroupLayout(base, 4, nil); err == nil {
		t.Fatal("regrouping 1 -> 4 over existing logs was allowed")
	}
}

func TestCheckGroupLayoutRoutingTableLegitimizesGrowth(t *testing.T) {
	base := t.TempDir() + "/rsm.log"
	if err := checkGroupLayout(base, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := recordGroupLayout(base, 2); err != nil {
		t.Fatal(err)
	}
	// With a persisted routing table carrying placement, growing hosted
	// capacity (spares for the next split) is legal…
	tbl := reshard.Legacy(2)
	if err := checkGroupLayout(base, 3, tbl); err != nil {
		t.Fatalf("table-backed growth 2 -> 3 refused: %v", err)
	}
	// …and the refusals that remain are typed and actionable.
	if err := checkGroupLayout(base, 1, tbl); err == nil {
		t.Fatal("table-backed shrink 2 -> 1 was allowed")
	} else {
		var le *GroupLayoutError
		if !errors.As(err, &le) {
			t.Fatalf("shrink refusal is not a *GroupLayoutError: %v", err)
		}
		if le.Prev != 2 || le.Want != 1 || le.Marker != base+".groups" {
			t.Fatalf("GroupLayoutError fields = %+v", le)
		}
	}
	// Without a table the old equality rule still protects placement,
	// and the error points the operator at the resharding flow.
	if err := checkGroupLayout(base, 3, nil); err == nil {
		t.Fatal("tableless growth 2 -> 3 was allowed")
	} else if !strings.Contains(err.Error(), "split") {
		t.Fatalf("tableless growth refusal does not mention resharding: %v", err)
	}
}
