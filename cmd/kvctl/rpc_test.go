package main

import (
	"context"
	"io"
	"net"
	"os"
	"strings"
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

func TestParseGet(t *testing.T) {
	tests := []struct {
		args    []string
		want    getSpec
		wantErr bool
	}{
		{[]string{"k"}, getSpec{key: "k"}, false},
		{[]string{"-level=lin", "k"}, getSpec{key: "k", level: "lin"}, false},
		{[]string{"k", "-level=seq"}, getSpec{key: "k", level: "seq"}, false},
		{[]string{"-level=stale", "-maxage=50ms", "k"}, getSpec{key: "k", level: "stale", maxAge: 50 * time.Millisecond}, false},
		{[]string{"-level=bogus", "k"}, getSpec{}, true},
		{[]string{"-maxage=50ms", "k"}, getSpec{}, true},
		{[]string{"-level=stale", "-maxage=nonsense", "k"}, getSpec{}, true},
		{[]string{"k", "extra"}, getSpec{}, true},
		{nil, getSpec{}, true},
	}
	for _, tt := range tests {
		got, err := parseGet(tt.args)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseGet(%v) error = %v, wantErr %v", tt.args, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("parseGet(%v) = %+v, want %+v", tt.args, got, tt.want)
		}
	}
}

// startRPCCluster runs an in-process 3-replica cluster with a
// front-door server per replica and returns their addresses.
func startRPCCluster(t *testing.T) []string {
	t.Helper()
	const n = 3
	hub := transport.NewHub(n, transport.HubOptions{Codec: true})
	t.Cleanup(hub.Close)
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	var hosts []*node.Host
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		h, err := node.NewHost(id, spec, hub.Endpoint(id), node.HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		app := &rsm.App{SM: kvstore.New()}
		nd := h.Group(0)
		nd.Bind(app)
		nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 2 * time.Millisecond}))
		hosts = append(hosts, h)
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
	var addrs []string
	for _, h := range hosts {
		srv := rpc.NewServer(h, rpc.ServerOptions{
			Admin: func(ctx context.Context, line string) (string, bool) {
				if line == "MEMBERS" {
					return "OK g0=r0,r1,r2", true
				}
				return "", false
			},
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns whatever it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	r.Close()
	return string(out), ferr
}

// TestRunRPCEndToEnd drives every kvctl verb through the front door
// against a live cluster and checks the printed replies.
func TestRunRPCEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real TCP cluster")
	}
	addrs := startRPCCluster(t)
	addr := strings.Join(addrs, ",")
	const timeout = 30 * time.Second

	invoke := func(args ...string) (string, error) {
		return captureStdout(t, func() error { return run(addr, timeout, args) })
	}

	steps := []struct {
		args []string
		want string
	}{
		{[]string{"put", "city", "Lausanne"}, "OK (nil)\n"},
		{[]string{"put", "city", "New York"}, "OK Lausanne\n"},
		{[]string{"get", "city"}, "OK New York\n"},
		{[]string{"get", "-level=lin", "city"}, "OK New York\n"},
		{[]string{"get", "-level=seq", "city"}, "OK New York\n"},
		{[]string{"get", "-level=stale", "city"}, "OK New York\n"},
		{[]string{"get", "-level=stale", "-maxage=10s", "city"}, "OK New York\n"},
		{[]string{"del", "city"}, "OK New York\n"},
		{[]string{"get", "city"}, "OK (nil)\n"},
		{[]string{"members"}, "OK g0=r0,r1,r2\n"},
	}
	for _, st := range steps {
		out, err := invoke(st.args...)
		if err != nil {
			t.Fatalf("run(%v): %v", st.args, err)
		}
		if out != st.want {
			t.Fatalf("run(%v) printed %q, want %q", st.args, out, st.want)
		}
	}

	// An admin verb the hook rejects maps to a bad-request error.
	if _, err := invoke("status"); err == nil {
		t.Fatal("unhandled admin verb did not error")
	}
}
