package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/rsm"
	"clockrsm/internal/shard"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// ThroughputConfig describes one throughput experiment (Figure 8,
// Section VI-D). It runs on the real runtime — goroutine replicas over
// an in-process transport with the binary codec enabled — so message
// processing cost is real CPU cost, which is what the paper measures
// ("in all cases, CPU is the bottleneck and message sending and
// receiving is the major consumer of CPU cycles"). Replicas log to main
// memory, as in the paper.
type ThroughputConfig struct {
	Replicas          int
	Protocol          Protocol
	Leader            int
	ClientsPerReplica int
	// Groups shards the run across that many independent replication
	// groups per node (default 1), multiplexed over one shared
	// transport endpoint per replica. Clients pick keys and the
	// shard.Router dispatches each command to its key's group, the
	// deployment model of `kvserver -groups`.
	Groups int
	// ClientBatch is the node's client-side submit batch width (the
	// paper's client-library batching, Section VI-D): up to this many
	// buffered proposals flush into one event-loop turn and share one
	// coalesced PREPARE broadcast. Default 1 (no batching).
	ClientBatch int
	// PayloadSize is the command size (paper: 10, 100, 1000 bytes).
	PayloadSize int
	Warmup      time.Duration
	Duration    time.Duration
	// NewLog overrides each replica's per-group stable log. Default is
	// NullLog (the paper logs to main memory with recovery out of
	// scope); the durability A/B in BENCH_6.json passes file logs here
	// to price fsync=batch against fsync=off on the same hot path.
	NewLog func(types.ReplicaID, types.GroupID) storage.Log
	// TCP runs the cluster over loopback TCP endpoints instead of the
	// in-process hub: messages traverse real sockets, the per-peer write
	// coalescer and the pooled decode path, and the result carries the
	// endpoints' summed wire counters as evidence.
	TCP bool
	// PinGroups pins each group's event loop to its own CPU (Linux
	// only): the per-group affinity experiment of the scaling sweep.
	PinGroups bool
}

// withDefaults fills reasonable defaults for unset fields.
func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Replicas == 0 {
		c.Replicas = 5
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	if c.ClientBatch <= 0 {
		c.ClientBatch = 1
	}
	if c.ClientsPerReplica == 0 {
		// Saturation is per group: each group needs its own closed-loop
		// client population. A batched run additionally scales the
		// population with the batch width (capped): closed-loop clients
		// re-propose in waves as each commit cascade resolves their
		// futures, and only a population ≫ the batch width lets those
		// waves fill SubmitBatch-sized flush chunks.
		c.ClientsPerReplica = 16 * c.Groups
		if c.ClientBatch > 1 {
			perGroup := 16 * c.ClientBatch
			if perGroup > 256 {
				perGroup = 256
			}
			c.ClientsPerReplica = perGroup * c.Groups
		}
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

// ThroughputResult reports one throughput measurement.
type ThroughputResult struct {
	Protocol    Protocol
	PayloadSize int
	Groups      int
	ClientBatch int
	// OpsPerSec is committed client commands per second, summed over
	// all replicas (and, in a sharded run, all groups).
	OpsPerSec float64
	// Wire sums the wire-level counters over every endpoint of a TCP
	// run (nil for in-process runs): flush coalescing evidence.
	Wire *transport.WireCounters
}

// clientKey picks the key client cli writes and the group it routes
// to: clients are spread round-robin over groups, and each probes for
// a key the router actually maps to its group, so the run exercises
// the same key→group dispatch a sharded deployment performs.
func clientKey(router *shard.Router, cli int) (string, types.GroupID) {
	want := types.GroupID(cli % router.Groups())
	for salt := 0; ; salt++ {
		key := fmt.Sprintf("key-%d-%d", cli, salt)
		if router.Group(key) == want {
			return key, want
		}
	}
}

// closedLoop is the load side of a Run* harness: zero-think client
// goroutines, each repeating one operation until the measured window
// closes. It keeps the first failure any of them hits, so a protocol
// failure names itself instead of presenting as a throughput of zero.
type closedLoop struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	measuring atomic.Bool
	once      sync.Once
	err       error
}

func newClosedLoop() *closedLoop { return &closedLoop{stop: make(chan struct{})} }

// client starts one client: it repeats op until the loop stops or op
// fails, adding the operations that complete inside the measured window
// to done.
func (l *closedLoop) client(done *atomic.Uint64, op func() error) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			if err := op(); err != nil {
				l.fail(err)
				return
			}
			if l.measuring.Load() {
				done.Add(1)
			}
		}
	}()
}

// fail records a client failure. node.ErrStopped once the loop is
// stopping is the shutdown, not a failure.
func (l *closedLoop) fail(err error) {
	if errors.Is(err, node.ErrStopped) {
		select {
		case <-l.stop:
			return
		default:
		}
	}
	l.once.Do(func() { l.err = err })
}

// measure lets the clients warm up, keeps the window open for d, stops
// them, and returns the window's length and the first client failure.
func (l *closedLoop) measure(warmup, d time.Duration) (time.Duration, error) {
	time.Sleep(warmup)
	l.measuring.Store(true)
	start := time.Now()
	time.Sleep(d)
	l.measuring.Store(false)
	elapsed := time.Since(start)
	close(l.stop)
	l.wg.Wait()
	return elapsed, l.err
}

// RunThroughput saturates a local cluster with closed-loop zero-think
// clients and measures committed commands per second.
func RunThroughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	n := cfg.Replicas
	// Transport: in-process hub with the binary codec by default; real
	// loopback TCP endpoints (write coalescer, pooled decode, wire
	// counters) when cfg.TCP is set.
	endpoint := func(id types.ReplicaID) transport.Transport { return nil }
	var tcps []*transport.TCPEndpoint
	if cfg.TCP {
		addrs, err := freeAddrs(n)
		if err != nil {
			return nil, err
		}
		tcps = make([]*transport.TCPEndpoint, n)
		for i := 0; i < n; i++ {
			tcps[i] = transport.NewTCP(types.ReplicaID(i), addrs, transport.TCPOptions{
				Groups: cfg.Groups,
			})
		}
		// Hosts close their shared endpoint on Stop; this is a backstop
		// for early-error returns.
		defer func() {
			for _, t := range tcps {
				t.Close()
			}
		}()
		endpoint = func(id types.ReplicaID) transport.Transport { return tcps[id] }
	} else {
		hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: cfg.Groups})
		defer hub.Close()
		endpoint = func(id types.ReplicaID) transport.Transport { return hub.Endpoint(id) }
	}
	router := shard.NewRouter(cfg.Groups)

	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}

	// The paper's throughput runs log to main memory with recovery out
	// of scope; NullLog keeps long saturation runs from accumulating
	// unbounded history (memory pressure would otherwise dominate).
	newLog := cfg.NewLog
	if newLog == nil {
		newLog = func(types.ReplicaID, types.GroupID) storage.Log { return storage.NewNullLog() }
	}

	hosts := make([]*node.Host, n)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		host, err := node.NewHost(id, spec, endpoint(id), node.HostOptions{
			Groups:      cfg.Groups,
			SubmitBatch: cfg.ClientBatch,
			NewLog:      func(g types.GroupID) storage.Log { return newLog(id, g) },
			PinGroups:   cfg.PinGroups,
		})
		if err != nil {
			return nil, err
		}
		for g := 0; g < cfg.Groups; g++ {
			app := &rsm.App{SM: kvstore.New()}
			nd := host.Group(types.GroupID(g))
			nd.Bind(app)
			proto, err := newProtocol(cfg.Protocol, nd, app, types.ReplicaID(cfg.Leader), 5*time.Millisecond)
			if err != nil {
				return nil, err
			}
			nd.SetProtocol(proto)
		}
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

	// Closed-loop clients with zero think time: "clients send frequent
	// enough commands to all replicas to saturate them". Each client
	// pipelines through the Propose future API; a future always resolves
	// — with the result, or ErrStopped when the host stops — so no client
	// can hang.
	var completed atomic.Uint64
	load := newClosedLoop()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		for c := 0; c < cfg.ClientsPerReplica; c++ {
			key, g := clientKey(router, c)
			target := hosts[i].Group(g)
			payload := kvstore.Put(key, make([]byte, cfg.PayloadSize))
			load.client(&completed, func() error {
				fut, err := target.Propose(ctx, payload)
				if err == nil {
					_, err = fut.Result()
				}
				return err
			})
		}
	}
	elapsed, err := load.measure(cfg.Warmup, cfg.Duration)
	if err != nil {
		return nil, fmt.Errorf("throughput %s: client: %w", cfg.Protocol, err)
	}

	res := &ThroughputResult{
		Protocol:    cfg.Protocol,
		PayloadSize: cfg.PayloadSize,
		Groups:      cfg.Groups,
		ClientBatch: cfg.ClientBatch,
		OpsPerSec:   float64(completed.Load()) / elapsed.Seconds(),
	}
	if tcps != nil {
		var wire transport.WireCounters
		for _, t := range tcps {
			wire.Add(t.Counters())
		}
		res.Wire = &wire
	}
	return res, nil
}

// Figure8 reproduces Figure 8: throughput of all four protocols on a
// local five-replica cluster for small (10 B), medium (100 B) and large
// (1000 B) commands.
func Figure8(sizes []int, perRun time.Duration) ([]ThroughputResult, error) {
	if len(sizes) == 0 {
		sizes = []int{10, 100, 1000}
	}
	var out []ThroughputResult
	for _, size := range sizes {
		for _, p := range AllProtocols() {
			res, err := RunThroughput(ThroughputConfig{
				Protocol:    p,
				PayloadSize: size,
				Duration:    perRun,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, *res)
		}
	}
	return out, nil
}

// BatchScaling measures hot-path throughput at each client-side batch
// width, same hardware and protocol: the client-batching study of
// Section VI-D, recorded in BENCH_3.json. Wider batches amortize one
// PREPARE broadcast (one encode, one frame per link) over more
// commands, at the cost of commands waiting for the flush turn.
func BatchScaling(batches []int, payload int, perRun time.Duration) ([]ThroughputResult, error) {
	if len(batches) == 0 {
		batches = []int{1, 8, 64}
	}
	var out []ThroughputResult
	for _, b := range batches {
		res, err := RunThroughput(ThroughputConfig{
			Protocol:    ClockRSM,
			PayloadSize: payload,
			ClientBatch: b,
			Duration:    perRun,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, *res)
	}
	return out, nil
}

// GroupScaling measures aggregate sharded throughput at each group
// count, same hardware and protocol: the multi-group scaling study
// recorded in BENCH_2.json. Scaling is near-linear until the machine's
// cores saturate; on a single-core host the curve is flat.
func GroupScaling(groupCounts []int, payload int, perRun time.Duration) ([]ThroughputResult, error) {
	if len(groupCounts) == 0 {
		groupCounts = []int{1, 2, 4}
	}
	var out []ThroughputResult
	for _, g := range groupCounts {
		res, err := RunThroughput(ThroughputConfig{
			Protocol:    ClockRSM,
			PayloadSize: payload,
			Groups:      g,
			Duration:    perRun,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, *res)
	}
	return out, nil
}

// GroupScalingRun is one row of the groups × GOMAXPROCS sweep.
type GroupScalingRun struct {
	Groups int
	// Procs is the GOMAXPROCS the row ran under.
	Procs int
	// Pinned reports whether each group's event loop was pinned to its
	// own CPU.
	Pinned    bool
	OpsPerSec float64
	// Wire carries the summed wire counters of a TCP row (nil for
	// in-process rows).
	Wire *transport.WireCounters
}

// SweepConfig configures GroupScalingSweep.
type SweepConfig struct {
	// GroupCounts and ProcCounts are the two sweep axes (defaults
	// {1,2,4} groups and {1, NumCPU} procs).
	GroupCounts []int
	ProcCounts  []int
	PayloadSize int
	PerRun      time.Duration
	// PinGroups additionally pins each group's loop to its own CPU.
	PinGroups bool
	// TCP routes each row over loopback TCP so the rows carry wire
	// counters (flush coalescing evidence).
	TCP bool
}

// GroupScalingSweep measures aggregate sharded throughput across the
// groups × GOMAXPROCS grid: the multi-core scaling study recorded in
// BENCH_7.json. The procs axis is what separates "more groups help"
// from "more groups merely queue": at GOMAXPROCS=1 every curve is flat
// by construction, and the sweep restores the original GOMAXPROCS
// before returning.
func GroupScalingSweep(cfg SweepConfig) ([]GroupScalingRun, error) {
	if len(cfg.GroupCounts) == 0 {
		cfg.GroupCounts = []int{1, 2, 4}
	}
	if len(cfg.ProcCounts) == 0 {
		cfg.ProcCounts = []int{1, runtime.NumCPU()}
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	var out []GroupScalingRun
	for _, procs := range cfg.ProcCounts {
		if procs <= 0 {
			return nil, fmt.Errorf("group scaling sweep: invalid GOMAXPROCS %d", procs)
		}
		runtime.GOMAXPROCS(procs)
		for _, g := range cfg.GroupCounts {
			res, err := RunThroughput(ThroughputConfig{
				Protocol:    ClockRSM,
				PayloadSize: cfg.PayloadSize,
				Groups:      g,
				Duration:    cfg.PerRun,
				TCP:         cfg.TCP,
				PinGroups:   cfg.PinGroups,
			})
			if err != nil {
				return nil, fmt.Errorf("sweep groups=%d procs=%d: %w", g, procs, err)
			}
			out = append(out, GroupScalingRun{
				Groups:    g,
				Procs:     procs,
				Pinned:    cfg.PinGroups,
				OpsPerSec: res.OpsPerSec,
				Wire:      res.Wire,
			})
		}
	}
	return out, nil
}
