package runner

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/chaos"
	"clockrsm/internal/clock"
	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/msg"
	"clockrsm/internal/node"
	"clockrsm/internal/reshard"
	"clockrsm/internal/rsm"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// logKind selects the stable log every (replica, group) gets.
type logKind int

const (
	// logMem keeps the full history in memory: everything but a restart
	// works.
	logMem logKind = iota
	// logNull is for saturation runs: the paper's throughput study logs
	// to main memory with recovery out of scope, and a log that keeps
	// nothing stops memory pressure from dominating a long run.
	logNull
	// logFile is a group-commit FileLog at dir/r<replica>.g<group>.log,
	// the only kind a killed replica can restart over.
	logFile
)

// clusterSpec says what a scenario's cluster is made of. Scenarios fill
// it with a struct literal; the zero value of every field but replicas
// and groups is a working choice (in-process hub, memory logs,
// Clock-RSM with core's defaults).
type clusterSpec struct {
	replicas int
	groups   int // groups the routing table routes to
	spares   int // further hosted groups, for splits to grow into
	// tcp runs the replicas over loopback TCP instead of the in-process
	// hub (wire codec on either way); latency, hub only, delays each
	// message by the matrix's one-way time.
	tcp     bool
	latency *wan.Matrix
	log     logKind
	// dir holds the file logs and, beside them, each replica's persisted
	// routing table (dir/r<replica>.routes), as a kvserver -log would.
	dir string
	// chaos, when set, is spliced in at the clock, transport and log
	// seams of every replica.
	chaos *chaos.Engine
	// protocol, when set to anything but ClockRSM, runs one of the
	// paper's baselines and ignores core.
	protocol Protocol
	core     core.Options
	// onCommit additionally observes every execution, on the executing
	// group's event loop.
	onCommit func(id types.ReplicaID, g types.GroupID, cmd types.Command)
	// debugf receives progress lines (testing.T.Logf fits).
	debugf func(format string, args ...any)
}

// hosted is how many groups every replica runs.
func (s clusterSpec) hosted() int { return s.groups + s.spares }

const (
	// dialRetry is the TCP reconnect backoff: short, so a start-all or a
	// restart is connected in tens of milliseconds, not the package's
	// one second.
	dialRetry = 50 * time.Millisecond
	// healEvery is the heal monitor's sampling period; a lagging epoch
	// must be seen twice, so ordinary install skew is not acted on.
	healEvery = 100 * time.Millisecond
	// throughputLeader is where Paxos and Paxos-bcast place their leader.
	throughputLeader types.ReplicaID = 0
)

// replica is one running incarnation of a replica: its host, the
// per-group stores the agreement check reads, and the per-group
// at-most-once trackers. A restart builds a fresh one, so the trackers
// reset with the process as the state machines do.
type replica struct {
	host   *node.Host
	tcp    *transport.TCPEndpoint // nil on the hub
	stores []*kvstore.Store
	dups   []*dupTracker
	// cores[g] is group g's Clock-RSM instance, for the counters a
	// scenario reads on the group's loop (nil under a baseline protocol).
	cores []*core.Replica
}

// dupTracker detects duplicate executions at one (replica, group) state
// machine: a proposal must execute at most once there. Proposals are told
// apart by timestamp, which the protocol keeps unique, not by CommandID:
// a restarted replica numbers its commands from 1 again. Execution is
// in timestamp order, so a second execution of a timestamp is one that
// does not pass the highest executed so far — a comparison per command,
// cheap enough for the saturation runs to carry.
type dupTracker struct {
	mu   sync.Mutex
	any  bool // last is set (the baselines' first timestamp is the zero value)
	last types.Timestamp
	dups []types.CommandID
}

func (d *dupTracker) observe(ts types.Timestamp, id types.CommandID) {
	d.mu.Lock()
	if !d.any || d.last.Less(ts) {
		d.any, d.last = true, ts
	} else {
		d.dups = append(d.dups, id)
	}
	d.mu.Unlock()
}

// atMostOnce fails if this incarnation executed any command twice (or
// behind a later one) in one group: replay, catch-up and resubmission
// must never re-apply a command the state machine already holds.
func (r *replica) atMostOnce() error {
	for g, dt := range r.dups {
		dt.mu.Lock()
		dups := dt.dups
		dt.mu.Unlock()
		if len(dups) > 0 {
			return fmt.Errorf("replica %v group %d executed %d commands more than once or out of timestamp order (first: %v)", r.host.ID(), g, len(dups), dups[0])
		}
	}
	return nil
}

// cluster is the one way this package stands up node.Hosts: every
// scenario gets its replicas, transport, logs, fault seams, routing,
// state machines, checkers and lifecycle from here, and ends through
// converged.
type cluster struct {
	spec  clusterSpec
	ids   []types.ReplicaID
	addrs map[types.ReplicaID]string // tcp
	hub   *transport.Hub
	plugs []*atomic.Pointer[hubPort]

	// reps[i] is replica i's current incarnation, nil while it is killed.
	// Guarded by mu: kill and restart swap incarnations while clients
	// and the heal monitor read them.
	mu    sync.RWMutex
	reps  []*replica
	lossy bool // faults or kills may have cost a link traffic

	healStop chan struct{}
	healDone sync.WaitGroup
}

// newCluster builds every replica, then starts them all. With a
// failure detector configured it also starts the heal monitor.
func newCluster(spec clusterSpec) (*cluster, error) {
	c := &cluster{spec: spec, reps: make([]*replica, spec.replicas), lossy: spec.chaos != nil}
	for i := 0; i < spec.replicas; i++ {
		c.ids = append(c.ids, types.ReplicaID(i))
	}
	if spec.tcp {
		addrs, err := freeAddrs(spec.replicas)
		if err != nil {
			return nil, err
		}
		c.addrs = addrs
	} else if err := c.openHub(); err != nil {
		return nil, err
	}
	for _, id := range c.ids {
		r, err := c.build(id)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.reps[id] = r
	}
	for _, r := range c.reps {
		if err := r.host.Start(); err != nil {
			c.stop()
			return nil, err
		}
	}
	if spec.core.SuspectTimeout > 0 {
		c.healStop = make(chan struct{})
		c.healDone.Add(1)
		go c.heal()
	}
	return c, nil
}

func (c *cluster) debugf(format string, args ...any) {
	if c.spec.debugf != nil {
		c.spec.debugf(format, args...)
	}
}

// hubEndpoint is what the in-process hub's endpoints implement.
type hubEndpoint interface {
	transport.GroupTransport
	transport.Broadcaster
	transport.GroupBroadcaster
}

// hubPort is one incarnation's plug into its hub endpoint. A hub
// endpoint cannot be reopened once closed, so the fixture starts each
// once, for the cluster's life, with handlers that forward to
// whichever port is plugged in; Start and Close only plug and unplug.
// Traffic for an unplugged (killed) replica is dropped, as a dead
// process's would be.
type hubPort struct {
	hubEndpoint
	plug     *atomic.Pointer[hubPort]
	handlers []transport.Handler
}

func (p *hubPort) SetHandler(h transport.Handler) { p.handlers[0] = h }

func (p *hubPort) SetGroupHandler(g types.GroupID, h transport.Handler) { p.handlers[g] = h }

func (p *hubPort) Start() error { p.plug.Store(p); return nil }

func (p *hubPort) Close() error { p.plug.CompareAndSwap(p, nil); return nil }

func (c *cluster) openHub() error {
	hosted := c.spec.hosted()
	c.hub = transport.NewHub(c.spec.replicas, transport.HubOptions{Codec: true, Groups: hosted, Latency: c.spec.latency})
	for _, id := range c.ids {
		plug := new(atomic.Pointer[hubPort])
		ep := c.hub.Endpoint(id).(hubEndpoint)
		for g := 0; g < hosted; g++ {
			ep.SetGroupHandler(types.GroupID(g), func(from types.ReplicaID, m msg.Message) {
				if p := plug.Load(); p != nil {
					p.handlers[g](from, m)
				} else {
					msg.Recycle(m)
				}
			})
		}
		if err := ep.Start(); err != nil {
			c.hub.Close()
			return err
		}
		c.plugs = append(c.plugs, plug)
	}
	return nil
}

// build constructs replica id over its logs — fresh, or left behind by
// a killed incarnation — without starting it.
func (c *cluster) build(id types.ReplicaID) (*replica, error) {
	s := c.spec
	hosted := s.hosted()
	r := &replica{}
	logs := make([]storage.Log, hosted)
	opts := node.HostOptions{
		Groups: hosted,
		NewLog: func(g types.GroupID) storage.Log { return logs[g] },
	}
	if s.spares > 0 {
		opts.Table = reshard.Legacy(s.groups)
	}
	for g := range logs {
		switch s.log {
		case logNull:
			logs[g] = storage.NewNullLog()
		case logMem:
			logs[g] = storage.NewMemLog()
		case logFile:
			path := filepath.Join(s.dir, fmt.Sprintf("r%d.g%d.log", id, g))
			fl, err := storage.OpenFileLog(path, storage.FileLogOptions{Mode: storage.SyncBatch})
			if err != nil {
				return nil, fmt.Errorf("replica %v: %w", id, err)
			}
			logs[g] = fl
		}
		if s.chaos != nil {
			logs[g] = s.chaos.Log(id, logs[g])
		}
	}
	if s.log == logFile {
		opts.RoutesPath = filepath.Join(s.dir, fmt.Sprintf("r%d.routes", id))
		saved, err := reshard.Load(opts.RoutesPath)
		if err != nil {
			return nil, fmt.Errorf("replica %v: %w", id, err)
		}
		if saved != nil {
			opts.Table = saved
		}
	}

	var tr transport.Transport
	if s.tcp {
		r.tcp = transport.NewTCP(id, c.addrs, transport.TCPOptions{Groups: hosted, DialRetry: dialRetry})
		tr = r.tcp
	} else {
		tr = &hubPort{
			hubEndpoint: c.hub.Endpoint(id).(hubEndpoint),
			plug:        c.plugs[id],
			handlers:    make([]transport.Handler, hosted),
		}
	}
	if s.chaos != nil {
		tr = s.chaos.Transport(tr)
		opts.Clock = clock.NewMonotonic(s.chaos.Clock(id, clock.System{}))
		opts.FaultStats = func() map[string]uint64 { return s.chaos.ReplicaCounts(id) }
	}
	host, err := node.NewHost(id, c.ids, tr, opts)
	if err != nil {
		tr.Close()
		return nil, err
	}
	r.host = host
	for g := 0; g < hosted; g++ {
		gid := types.GroupID(g)
		store, dt := kvstore.New(), &dupTracker{}
		r.stores = append(r.stores, store)
		r.dups = append(r.dups, dt)
		app := &rsm.App{SM: store, OnCommit: func(ts types.Timestamp, cmd types.Command) {
			dt.observe(ts, cmd.ID)
			if s.onCommit != nil {
				s.onCommit(id, gid, cmd)
			}
		}}
		// Bind through the host, as kvserver does: the state machine gets
		// the resharding wrapper and routing follows the host's table.
		if err := host.Bind(gid, app); err != nil {
			host.Stop()
			return nil, err
		}
		nd := host.Group(gid)
		r.cores = append(r.cores, nil)
		if s.protocol != "" && s.protocol != ClockRSM {
			proto, err := newProtocol(s.protocol, nd, app, throughputLeader, 0)
			if err != nil {
				host.Stop()
				return nil, err
			}
			nd.SetProtocol(proto)
			continue
		}
		r.cores[g] = core.New(nd, app, s.core)
		nd.SetProtocol(r.cores[g])
	}
	return r, nil
}

// kill crashes replica id as a process kill would: its event loops stop
// dead and its logs are abandoned open, so whatever the group-commit
// buffer held unsynced is lost. The dying incarnation's at-most-once
// tracker is checked on the way out.
func (c *cluster) kill(id types.ReplicaID) error {
	c.mu.Lock()
	r := c.reps[id]
	c.reps[id] = nil
	c.lossy = true
	c.mu.Unlock()
	r.host.Stop()
	return r.atMostOnce()
}

// restart boots a killed replica over the logs it left behind; it
// replays them and rejoins by itself (core.New, Replica.Start).
func (c *cluster) restart(id types.ReplicaID) (*replica, error) {
	if c.spec.log != logFile {
		return nil, errors.New("runner: only a file log survives a kill to restart over")
	}
	r, err := c.build(id)
	if err != nil {
		return nil, err
	}
	if err := r.host.Start(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.reps[id] = r
	c.mu.Unlock()
	return r, nil
}

// rep returns replica id's current incarnation, nil while it is killed.
func (c *cluster) rep(id types.ReplicaID) *replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.reps[id]
}

// live returns the running replicas in ID order.
func (c *cluster) live() []*replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*replica, 0, len(c.reps))
	for _, r := range c.reps {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// pick returns a running replica, trying pref, pref+1, ... and skipping
// replica not (-1 excludes none); nil if there is none.
func (c *cluster) pick(pref, not int) *replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k := range c.reps {
		if i := (pref + k) % len(c.reps); i != not && c.reps[i] != nil {
			return c.reps[i]
		}
	}
	return nil
}

// table returns the routing table the hosts themselves route by, so
// the harness can never place a key differently from the node it
// drives.
func (c *cluster) table() *reshard.Table { return c.pick(0, -1).host.Table() }

// heal plays the operator while a failure detector is on: a replica the
// detector (or a fault) removed is alive and must be driven back in.
// Two triggers: the replica's own status says it is out of the
// configuration, or — the case a fully isolated victim cannot see,
// because the SUSPEND that removed it was itself dropped — its epoch
// lags the rest of the group. Rejoin is asynchronous, self-retrying and
// idempotent, so poking an already-rejoining group is harmless.
func (c *cluster) heal() {
	defer c.healDone.Done()
	lagging := make(map[[2]int]types.Epoch)
	for {
		select {
		case <-c.healStop:
			return
		case <-time.After(healEvery):
		}
		live := c.live()
		sts := make([]node.HostStatus, len(live))
		maxEpoch := make([]types.Epoch, c.spec.hosted())
		for i, r := range live {
			sts[i] = r.host.Status()
			for _, gs := range sts[i].Groups {
				if gs.Epoch > maxEpoch[gs.Group] {
					maxEpoch[gs.Group] = gs.Epoch
				}
			}
		}
		for i, r := range live {
			for _, gs := range sts[i].Groups {
				k := [2]int{int(r.host.ID()), int(gs.Group)}
				switch {
				case !gs.InConfig:
					delete(lagging, k)
					c.debugf("heal: replica %d out of group %d config (epoch %d); rejoining", k[0], k[1], gs.Epoch)
					_ = r.host.Group(gs.Group).Rejoin()
				case gs.Epoch < maxEpoch[gs.Group]:
					if prev, ok := lagging[k]; ok && prev == gs.Epoch {
						delete(lagging, k)
						c.debugf("heal: replica %d stuck at group %d epoch %d (cluster at %d); rejoining", k[0], k[1], gs.Epoch, maxEpoch[gs.Group])
						_ = r.host.Group(gs.Group).Rejoin()
					} else {
						lagging[k] = gs.Epoch
					}
				default:
					delete(lagging, k)
				}
			}
		}
	}
}

// stop ends the heal monitor and every running replica.
func (c *cluster) stop() {
	if c.healStop != nil {
		close(c.healStop)
		c.healDone.Wait()
	}
	for _, r := range c.live() {
		r.host.Stop()
	}
	if c.hub != nil {
		c.hub.Close()
	}
}

// converged is how every scenario ends. It waits up to timeout for
// agreement — per group, every configured replica's store serializes to
// the same bytes (kvstore snapshots are deterministic: sorted keys plus
// the applied count, so byte equality means the same command sequence)
// — then requires that no running incarnation executed a command twice
// and, where nothing the scenario did can lose traffic, that no
// receiver proved a link gap.
func (c *cluster) converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		detail := c.diverged()
		if detail == "" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no agreement within %v: %s%s", timeout, detail, c.dump())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, r := range c.live() {
		if err := r.atMostOnce(); err != nil {
			return err
		}
		for _, gs := range r.host.Status().Groups {
			if gs.LinkGaps != 0 && !c.lossy {
				return fmt.Errorf("replica %v group %v proved %d link gaps on a lossless network", r.host.ID(), gs.Group, gs.LinkGaps)
			}
		}
	}
	return nil
}

// diverged names the first disagreement between configured replicas, or
// returns "". A replica outside a group's configuration was removed by
// an operator and its frozen state is not compared — unless the heal
// monitor is running, in which case it is on its way back in and
// agreement waits for it.
func (c *cluster) diverged() string {
	live := c.live()
	sts := make([]node.HostStatus, len(live))
	for i, r := range live {
		sts[i] = r.host.Status()
	}
	for g := 0; g < c.spec.hosted(); g++ {
		var ref *replica
		var refSnap []byte
		for i, r := range live {
			if !sts[i].Groups[g].InConfig {
				if c.healStop != nil {
					return fmt.Sprintf("replica %v not in group %d config", r.host.ID(), g)
				}
				continue
			}
			if ref == nil {
				ref, refSnap = r, r.stores[g].Snapshot()
			} else if !bytes.Equal(refSnap, r.stores[g].Snapshot()) {
				return fmt.Sprintf("group %d: replica %v (%d keys) and replica %v (%d keys) diverge",
					g, ref.host.ID(), ref.stores[g].Len(), r.host.ID(), r.stores[g].Len())
			}
		}
	}
	return ""
}

// dump renders every running replica's per-group protocol state and
// store, for the error a wait that never completed returns.
func (c *cluster) dump() string {
	var b strings.Builder
	for _, r := range c.live() {
		for _, gs := range r.host.Status().Groups {
			var proto string
			if rep := r.cores[gs.Group]; rep != nil {
				r.host.Group(gs.Group).Do(func() {
					proto = fmt.Sprintf(" committed=%d pending=%d %s",
						rep.Committed(), rep.PendingLen(), rep.DebugReconfig())
				})
			}
			fmt.Fprintf(&b, "\n  r%d g%d epoch=%d members=%s in=%t applied=%d%s:", r.host.ID(), gs.Group,
				gs.Epoch, node.MemberString(gs.Members), gs.InConfig, r.stores[gs.Group].Applied(), proto)
			for k, v := range r.stores[gs.Group].SnapshotMap() {
				fmt.Fprintf(&b, " %s=%s", k, v)
			}
		}
	}
	return b.String()
}

// heldDropped fails if any future-epoch hold buffer overflowed into a
// drop: overflow forces a rejoin, but in runs this size any drop at all
// means the buffer was mis-sized.
func (c *cluster) heldDropped() error {
	for _, r := range c.live() {
		for _, gs := range r.host.Status().Groups {
			if gs.HeldDropped > 0 {
				return fmt.Errorf("replica %v group %v dropped %d held future-epoch messages", r.host.ID(), gs.Group, gs.HeldDropped)
			}
		}
	}
	return nil
}

// freeAddrs reserves n distinct loopback TCP addresses. The listeners
// are closed before returning, so a replica (and its restarts) can bind
// the address; the window in which another process could steal the port
// is the usual test-harness race and acceptably small.
func freeAddrs(n int) (map[types.ReplicaID]string, error) {
	addrs := make(map[types.ReplicaID]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[types.ReplicaID(i)] = ln.Addr().String()
	}
	return addrs, nil
}
