// Command kvserver runs one replica of the Clock-RSM replicated
// key-value store over TCP. Clients reach it on -client through the
// binary front door (internal/rpc): a multiplexed, pipelined
// request/response protocol with per-connection and global admission
// budgets (-rpc-conn-budget, -rpc-budget), spoken by the client package
// and kvctl.
//
// Writes (PUT, DEL) and the replicated GET enter the replication stack
// through node.Host.Execute and reply once they have committed
// (linearizably) at this replica. The consistency-tiered reads — GETL
// (linearizable), GETS (session-monotonic), GETA (bounded staleness) —
// are served from the replica's stable prefix through
// node.Host.ReadKey, with no replication traffic. Every wait is bounded
// by -client-timeout and canceled the moment the client connection
// closes.
//
// The same port serves the operator API as admin lines (see admin.go
// and kvctl):
//
//	MEMBERS              per-group configuration member sets
//	EPOCH                per-group configuration epochs
//	STATUS               per-group epoch/members/in-flight/latency snapshot
//	RECONF <id,id,...>   atomically reconfigure every group (grow/shrink)
//	ROUTES               routing table: version, slot counts, migrations
//	SPLIT <src> <dst>    live-move half of group src's key slots to dst
//	HEAL                 roll forward a split a crashed coordinator left
//
// Example three-replica cluster on one machine:
//
//	kvserver -id 0 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 -client 127.0.0.1:7200
//	kvserver -id 1 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 -client 127.0.0.1:7201
//	kvserver -id 2 -peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 -client 127.0.0.1:7202
//
// With -groups G every replica hosts G independent Clock-RSM groups
// multiplexed over the same peer connections; the key space is
// partitioned into slots routed by a dynamic table (internal/reshard)
// that starts placement-identical to hash sharding, and groups commit
// in parallel. All replicas of one cluster must use the same -groups
// value; capacity beyond what the routing table uses is spare groups a
// live SPLIT can activate. With -log, group g persists to <path>.g<g>
// (a single group keeps <path> itself) and the routing table persists
// to <path>.routes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"clockrsm/internal/chaos"
	"clockrsm/internal/clock"
	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/reshard"
	"clockrsm/internal/rpc"
	"clockrsm/internal/rsm"
	"clockrsm/internal/shard"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// serverConfig carries the parsed kvserver flags.
type serverConfig struct {
	id            int
	peers         string
	clientAddr    string
	groups        int
	delta         time.Duration
	suspect       time.Duration
	logPath       string
	clientTimeout time.Duration
	// fsync selects the WAL durability mode for every group's file log:
	// "always" (one fsync per append), "batch" (group commit: one fsync
	// per event-loop batch, released before the covering acks leave), or
	// "off" (no fsync). Ignored without -log.
	fsync string
	// checkpointEvery, when positive, snapshots the state machine every
	// that many committed commands and compacts the log through it.
	checkpointEvery int
	// rpcBudget / rpcConnBudget are the front door's global and
	// per-connection admission budgets (0 = the rpc package defaults).
	rpcBudget     int
	rpcConnBudget int
	// chaosSeed, when non-zero, arms a deterministic fault-injection
	// schedule (internal/chaos) drawn from the seed: clock anomalies on
	// this replica's clock, drops/delays on its outgoing links, stalls on
	// its log. chaosSchedule instead replays a JSON schedule file (a
	// json.Marshal'd chaos.Schedule, or one written by hand) and takes
	// precedence. Both
	// are for test and burn-in deployments only; injected-fault counters
	// appear under faults=(...) in STATUS.
	chaosSeed     int64
	chaosSchedule string
}

func main() {
	var cfg serverConfig
	flag.IntVar(&cfg.id, "id", 0, "replica ID (index into -peers)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated replica addresses, ordered by ID")
	flag.StringVar(&cfg.clientAddr, "client", "127.0.0.1:7200", "client listen address")
	flag.IntVar(&cfg.groups, "groups", 1, "independent replication groups hosted by this node (key-sharded)")
	flag.DurationVar(&cfg.delta, "delta", 5*time.Millisecond, "CLOCKTIME broadcast interval Δ (0 disables)")
	flag.DurationVar(&cfg.suspect, "suspect", 0, "failure detector: an exited peer is suspected at once; a silent one after this timeout (0 disables reconfiguration)")
	flag.StringVar(&cfg.logPath, "log", "", "stable log file (empty = in-memory; group g uses <path>.g<g>)")
	flag.DurationVar(&cfg.clientTimeout, "client-timeout", 30*time.Second, "server-side wait bound per client request (0 = the rpc default, 10s)")
	flag.StringVar(&cfg.fsync, "fsync", "always", "WAL fsync mode with -log: always, batch (group commit), or off")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint", 0, "snapshot + compact the log every N committed commands (0 disables)")
	flag.IntVar(&cfg.rpcBudget, "rpc-budget", 0, "front-door global in-flight admission budget (0 = default)")
	flag.IntVar(&cfg.rpcConnBudget, "rpc-conn-budget", 0, "front-door per-connection in-flight admission budget (0 = default)")
	flag.Int64Var(&cfg.chaosSeed, "chaos-seed", 0, "arm a deterministic random fault schedule from this seed (0 disables; test deployments only)")
	flag.StringVar(&cfg.chaosSchedule, "chaos-schedule", "", "arm the JSON fault schedule in this file (chaos replay artifact or hand-written; overrides -chaos-seed)")
	flag.Parse()

	if err := run(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
}

// run serves one replica until ctx is canceled (or the client listener
// fails), then stops it.
func run(ctx context.Context, cfg serverConfig) error {
	id, groups := cfg.id, cfg.groups
	peerList, clientAddr, logPath := cfg.peers, cfg.clientAddr, cfg.logPath
	if groups < 1 {
		groups = 1
	}
	if groups > transport.MaxGroups {
		return fmt.Errorf("-groups %d exceeds the wire protocol's limit of %d", groups, transport.MaxGroups)
	}
	addrs := make(map[types.ReplicaID]string)
	var spec []types.ReplicaID
	for i, a := range strings.Split(peerList, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return fmt.Errorf("empty peer address at position %d", i)
		}
		addrs[types.ReplicaID(i)] = a
		spec = append(spec, types.ReplicaID(i))
	}
	if id < 0 || id >= len(spec) {
		return fmt.Errorf("id %d out of range for %d peers", id, len(spec))
	}

	mode, err := storage.ParseSyncMode(cfg.fsync)
	if err != nil {
		return err
	}
	// The chaos engine, when armed, injects this replica's share of the
	// fault schedule at three layers: the clock source, the outgoing
	// links, and the stable log. Replay artifacts beat seeds so a failing
	// seeded run's shipped schedule reproduces bit-for-bit.
	var eng *chaos.Engine
	switch {
	case cfg.chaosSchedule != "":
		b, err := os.ReadFile(cfg.chaosSchedule)
		if err != nil {
			return err
		}
		sched, err := chaos.DecodeSchedule(b)
		if err != nil {
			return fmt.Errorf("chaos schedule %s: %w", cfg.chaosSchedule, err)
		}
		eng = chaos.New(sched)
	case cfg.chaosSeed != 0:
		eng = chaos.New(chaos.Random(cfg.chaosSeed, chaos.Profile{
			Replicas:    len(spec),
			Span:        5 * time.Second,
			ClockFaults: 2,
			LinkFaults:  2,
			DiskFaults:  1,
		}))
	}

	// The routing table, when persisted from a previous run, is the
	// source of truth for key placement; -groups is just hosting
	// capacity. A nil table (fresh boot, or no -log) routes by the
	// legacy layout, which is placement-identical to hash-mod-G.
	var table *reshard.Table
	var routesPath string
	if logPath != "" {
		routesPath = logPath + ".routes"
		var err error
		if table, err = reshard.Load(routesPath); err != nil {
			return fmt.Errorf("routing table %s: %w", routesPath, err)
		}
	}

	logs := make([]storage.Log, groups)
	if logPath != "" {
		if err := checkGroupLayout(logPath, groups, table); err != nil {
			return err
		}
		for g := 0; g < groups; g++ {
			fl, err := storage.OpenFileLog(shard.LogPath(logPath, types.GroupID(g), groups), storage.FileLogOptions{Mode: mode})
			if err != nil {
				return err
			}
			logs[g] = fl
			if eng != nil {
				logs[g] = eng.Log(types.ReplicaID(id), fl)
			}
		}
	}

	var tr transport.Transport = transport.NewTCP(types.ReplicaID(id), addrs, transport.TCPOptions{Groups: groups})
	hostOpts := node.HostOptions{
		Groups:     groups,
		NewLog:     func(g types.GroupID) storage.Log { return logs[g] },
		Table:      table,
		RoutesPath: routesPath,
	}
	if eng != nil {
		tr = eng.Transport(tr)
		hostOpts.Clock = clock.NewMonotonic(eng.Clock(types.ReplicaID(id), clock.System{}))
		hostOpts.FaultStats = func() map[string]uint64 { return eng.ReplicaCounts(types.ReplicaID(id)) }
	}
	host, err := node.NewHost(types.ReplicaID(id), spec, tr, hostOpts)
	if err != nil {
		return err
	}
	for g := 0; g < groups; g++ {
		gid := types.GroupID(g)
		app := &rsm.App{SM: kvstore.New()}
		nd := host.Group(gid)
		// Bind through the host so each group's state machine gets the
		// resharding wrapper: replicated fence/install commands route and
		// fence keys, and execution results resolve proposal futures.
		if err := host.Bind(gid, app); err != nil {
			return err
		}
		nd.SetProtocol(core.New(nd, app, core.Options{
			ClockTimeInterval: cfg.delta,
			SuspectTimeout:    cfg.suspect,
			CheckpointEvery:   cfg.checkpointEvery,
		}))
	}
	if logPath != "" {
		// Record the group count only now that the logs opened and the
		// host was built: a start that fails earlier leaves no marker
		// blocking a corrected retry.
		if err := recordGroupLayout(logPath, groups); err != nil {
			return err
		}
	}
	if err := host.Start(); err != nil {
		return err
	}
	defer host.Stop()
	log.Printf("replica r%d up; groups=%d peers=%v client=%s fsync=%s", id, groups, peerList, clientAddr, mode)
	if eng != nil {
		// Arm only once the replica is serving, so the schedule's t=0 is
		// "cluster up", matching how the chaos matrix replays schedules.
		eng.Arm()
		log.Printf("replica r%d CHAOS ARMED (seed=%d schedule=%q) — fault injection active, test deployments only",
			id, cfg.chaosSeed, cfg.chaosSchedule)
	}

	// The front door (internal/rpc) is the only way in: data verbs reach
	// the host through Execute / ReadKey, operator verbs arrive as VAdmin
	// lines for the admin handler.
	srv := &server{host: host}
	srv.rpc = rpc.NewServer(host, rpc.ServerOptions{
		MaxInFlight:  cfg.rpcBudget,
		ConnInFlight: cfg.rpcConnBudget,
		Timeout:      cfg.clientTimeout,
		Admin:        srv.admin,
	})
	defer srv.rpc.Close()
	ln, err := net.Listen("tcp", clientAddr)
	if err != nil {
		return err
	}
	defer ln.Close()
	stop := context.AfterFunc(ctx, srv.rpc.Close)
	defer stop()
	return srv.rpc.Serve(ln)
}

// GroupLayoutError is the typed refusal for a -groups value the
// on-disk state cannot support. It names the marker file the previous
// count was read from and says what would make the new count legal —
// since live resharding exists, the answer is no longer "never": a
// restart may always grow capacity (add spares) when a persisted
// routing table carries the placement, and shrinking goes through
// group splits/merges (`kvctl split`, see the README's Resharding
// walkthrough), never through editing -groups.
type GroupLayoutError struct {
	// Marker is the layout marker path (<log>.groups), Routes the
	// routing-table path (<log>.routes) whose presence legitimizes
	// grown counts.
	Marker, Routes string
	// Prev is the recorded count (0: none, single-group era log), Want
	// the count this start asked for.
	Prev, Want int
	// Reason says why Want is not acceptable.
	Reason string
}

func (e *GroupLayoutError) Error() string {
	return fmt.Sprintf("group layout: -groups %d rejected (%s recorded %d): %s",
		e.Want, e.Marker, e.Prev, e.Reason)
}

// checkGroupLayout refuses to start when the on-disk logs cannot be
// served under the requested -groups value. Before resharding the rule
// was equality: the count determined the key→group hash, so any change
// silently misplaced committed data. With a persisted routing table
// (<log>.routes) placement lives in the table — slots are fixed at
// genesis — so a grown count only adds spare groups and is accepted;
// what stays illegal is shrinking below the groups the table (or the
// marker) routes to, and growing a deployment that predates the table.
// The check is read-only; recordGroupLayout persists the count in force
// once startup has gotten far enough that a marker cannot outlive a
// failed first start.
func checkGroupLayout(base string, groups int, table *reshard.Table) error {
	marker := base + ".groups"
	routes := base + ".routes"
	fail := func(prev int, reason string) error {
		return &GroupLayoutError{Marker: marker, Routes: routes, Prev: prev, Want: groups, Reason: reason}
	}
	if b, err := os.ReadFile(marker); err == nil {
		prev, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil {
			return fmt.Errorf("corrupt group marker %s: %q", marker, b)
		}
		switch {
		case prev == groups:
			return nil
		case table != nil && groups > prev && prev > 1:
			// The routing table owns placement and every group it routes
			// to keeps its log file; extra capacity is spares for the next
			// split. (NewHost separately refuses a table that routes to
			// more groups than hosted.)
			return nil
		case table != nil && groups < prev:
			return fail(prev, fmt.Sprintf("shrinking hosted capacity would orphan group logs; drain groups with splits/merges first (routing table %s routes %d groups)", routes, table.Groups()))
		case table != nil && prev <= 1:
			return fail(prev, "single-group log naming differs; migrate the log to <path>.g0 and restart")
		default:
			return fail(prev, fmt.Sprintf("no routing table at %s to carry placement across the change; grow groups via live resharding (start with spare capacity, then `kvctl split`), or remove the logs and %s", routes, marker))
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	// No marker: logs from before group sharding are single-group.
	if groups > 1 {
		if st, err := os.Stat(base); err == nil && st.Size() > 0 {
			return fail(0, fmt.Sprintf("log %s predates group sharding (single-group); migrate it to <path>.g0 or remove it", base))
		}
	}
	return nil
}

// recordGroupLayout persists the group count checkGroupLayout validates
// against on later starts.
func recordGroupLayout(base string, groups int) error {
	return os.WriteFile(base+".groups", []byte(strconv.Itoa(groups)+"\n"), 0o644)
}

// server holds what the admin handler reads: the host it operates on
// and the front door whose admission counters STATUS reports.
type server struct {
	host *node.Host
	rpc  *rpc.Server
}
