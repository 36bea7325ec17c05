package runner

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/client"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/rpc"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// FrontDoorMode selects which client protocol a front-door run drives.
type FrontDoorMode string

const (
	// FrontDoorRPC drives the multiplexed binary front door through the
	// client package: many pipelined requests share one connection.
	FrontDoorRPC FrontDoorMode = "rpc"
	// FrontDoorLine drives the legacy line protocol: one request in
	// flight per connection, strict write-then-read.
	FrontDoorLine FrontDoorMode = "line"
)

// FrontDoorConfig describes one front-door throughput experiment: a
// local Clock-RSM cluster (in-process replication transport, real CPU
// cost) fronted by real TCP listeners, saturated by closed-loop
// writers over the chosen client protocol. It measures what the
// BENCH_8 acceptance gate needs: committed client commands per second
// as a function of protocol, connection count and pipeline window.
type FrontDoorConfig struct {
	Replicas int
	Mode     FrontDoorMode
	// Conns is the number of front-door connections, all to replica 0
	// so the two modes compare one server's front door. Default 1.
	Conns int
	// Window is the per-connection pipeline depth (RPC mode only): each
	// connection runs this many closed-loop workers sharing it. The
	// line protocol's window is structurally 1. Default 32.
	Window      int
	PayloadSize int
	// ReplicaDelay, when positive, emulates a WAN between the replicas:
	// every replication message is delayed by this one-way latency
	// (wan.Uniform over the hub). Commit latency then costs what it
	// costs in the paper's geo-replicated setting, which is the regime
	// the front-door comparison is about — a ping-pong protocol pays
	// that latency per command, a pipelined one amortizes it across the
	// window. Zero keeps the links instant (the CPU-bound local run).
	ReplicaDelay time.Duration
	Warmup       time.Duration
	Duration     time.Duration
}

func (c FrontDoorConfig) withDefaults() FrontDoorConfig {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Mode == "" {
		c.Mode = FrontDoorRPC
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.PayloadSize == 0 {
		c.PayloadSize = 100
	}
	if c.Warmup == 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	return c
}

// FrontDoorResult reports one front-door measurement.
type FrontDoorResult struct {
	Mode  FrontDoorMode
	Conns int
	// Window is the per-connection pipeline depth (1 in line mode).
	Window int
	// Clients is the number of concurrent closed-loop requesters:
	// Conns × Window. Equal-client comparisons across modes hold this
	// equal, not Conns.
	Clients int
	// ReplicaDelay is the emulated one-way replica link latency the run
	// used (0 = instant links).
	ReplicaDelay time.Duration
	OpsPerSec    float64
}

// lineServer is a minimal legacy-shaped line-protocol server over one
// host: bufio scanner in, one "OK ..." line out per request, every
// data verb replicated through the log. It exists so the line baseline
// in the front-door benchmark exercises the same request shape
// cmd/kvserver serves, without importing a package main.
type lineServer struct {
	host *node.Host
	ln   net.Listener
	mu   sync.Mutex
	conn map[net.Conn]struct{}
	wg   sync.WaitGroup
}

func newLineServer(host *node.Host, ln net.Listener) *lineServer {
	s := &lineServer{host: host, ln: ln, conn: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conn[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serve(c)
		}
	}()
	return s
}

func (s *lineServer) serve(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conn, c)
		s.mu.Unlock()
		c.Close()
	}()
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	w := bufio.NewWriter(c)
	ctx := context.Background()
	for sc.Scan() {
		verb, rest, _ := strings.Cut(sc.Text(), " ")
		key, val, _ := strings.Cut(rest, " ")
		var payload []byte
		switch verb {
		case "PUT":
			payload = kvstore.Put(key, []byte(val))
		case "GET":
			payload = kvstore.Get(key)
		case "DEL":
			payload = kvstore.Delete(key)
		default:
			fmt.Fprintf(w, "ERR unknown verb %q\n", verb)
			w.Flush()
			continue
		}
		fut, err := s.host.ProposeKey(ctx, key, payload)
		if err == nil {
			_, err = fut.Result()
		}
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		} else {
			fmt.Fprintln(w, "OK")
		}
		w.Flush()
	}
}

func (s *lineServer) Close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conn {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// RunFrontDoor measures committed commands per second through a real
// TCP front door in the configured mode.
func RunFrontDoor(cfg FrontDoorConfig) (*FrontDoorResult, error) {
	cfg = cfg.withDefaults()
	n := cfg.Replicas

	// Replication over the in-process hub with the codec on (real
	// message-processing CPU cost), front doors on real TCP.
	hubOpts := transport.HubOptions{Codec: true}
	if cfg.ReplicaDelay > 0 {
		hubOpts.Latency = wan.Uniform(n, cfg.ReplicaDelay)
	}
	hub := transport.NewHub(n, hubOpts)
	defer hub.Close()
	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}
	hosts := make([]*node.Host, n)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		host, err := node.NewHost(id, spec, hub.Endpoint(id), node.HostOptions{
			NewLog: func(types.GroupID) storage.Log { return storage.NewNullLog() },
		})
		if err != nil {
			return nil, err
		}
		app := &rsm.App{SM: kvstore.New()}
		nd := host.Group(0)
		nd.Bind(app)
		proto, err := newProtocol(ClockRSM, nd, app, 0, 5*time.Millisecond)
		if err != nil {
			return nil, err
		}
		nd.SetProtocol(proto)
		hosts[i] = host
	}
	for _, host := range hosts {
		if err := host.Start(); err != nil {
			return nil, fmt.Errorf("start host: %w", err)
		}
	}
	defer func() {
		for _, host := range hosts {
			host.Stop()
		}
	}()

	// One front door per replica, as deployed; all load targets
	// replica 0's so both modes measure a single server's door.
	var addr string
	switch cfg.Mode {
	case FrontDoorRPC:
		for i := 0; i < n; i++ {
			srv := rpc.NewServer(hosts[i], rpc.ServerOptions{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				return nil, err
			}
			go srv.Serve(ln)
			defer srv.Close()
			if i == 0 {
				addr = ln.Addr().String()
			}
		}
	case FrontDoorLine:
		for i := 0; i < n; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv := newLineServer(hosts[i], ln)
			defer srv.Close()
			if i == 0 {
				addr = ln.Addr().String()
			}
		}
	default:
		return nil, fmt.Errorf("front door: unknown mode %q", cfg.Mode)
	}

	var completed atomic.Uint64
	load := newClosedLoop()
	window := cfg.Window
	if cfg.Mode == FrontDoorLine {
		window = 1 // structural: one in-flight request per connection
	}

	value := bytes.Repeat([]byte("x"), cfg.PayloadSize)
	switch cfg.Mode {
	case FrontDoorRPC:
		ctx := context.Background()
		for i := 0; i < cfg.Conns; i++ {
			c, err := client.Dial(client.Config{Addrs: []string{addr}, Window: window})
			if err != nil {
				close(load.stop)
				return nil, err
			}
			defer c.Close()
			for j := 0; j < window; j++ {
				key := fmt.Sprintf("fd-%d-%d", i, j)
				load.client(&completed, func() error {
					_, err := c.Put(ctx, key, value)
					return err
				})
			}
		}
	case FrontDoorLine:
		for i := 0; i < cfg.Conns; i++ {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				close(load.stop)
				return nil, err
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			line := fmt.Sprintf("PUT fd-%d %s\n", i, value)
			load.client(&completed, func() error {
				if _, err := fmt.Fprint(conn, line); err != nil {
					return err
				}
				resp, err := r.ReadString('\n')
				if err == nil && !strings.HasPrefix(resp, "OK") {
					err = fmt.Errorf("server replied %q", strings.TrimSpace(resp))
				}
				return err
			})
		}
	}

	elapsed, err := load.measure(cfg.Warmup, cfg.Duration)
	if err != nil {
		return nil, fmt.Errorf("front door %s: client: %w", cfg.Mode, err)
	}

	return &FrontDoorResult{
		Mode:         cfg.Mode,
		Conns:        cfg.Conns,
		Window:       window,
		Clients:      cfg.Conns * window,
		ReplicaDelay: cfg.ReplicaDelay,
		OpsPerSec:    float64(completed.Load()) / elapsed.Seconds(),
	}, nil
}
