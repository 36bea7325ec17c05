package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/client"
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
	"clockrsm/internal/wan"
)

// delta is kvserver's default CLOCKTIME interval.
const delta = 5 * time.Millisecond

// cluster is a workload's replicas running in this process, each wired
// the way cmd/kvserver's run() wires one: node.Host over a transport,
// core.New per group with kvserver's default options (read nudge on),
// an rpc.Server in front. With a tracer the seams are wrapped in timing
// decorators; an untraced cluster holds no benchmark code on any path.
type cluster struct {
	w    *workload
	dir  string
	spec []types.ReplicaID
	tr   *tracer

	matrix *wan.Matrix    // hub mode
	hub    *transport.Hub // hub mode
	addrs  map[types.ReplicaID]string

	// mu guards reps against the fault schedule swapping incarnations.
	mu   sync.Mutex
	reps []*replica
	// abandoned keeps the logs of crashed incarnations: a kill never
	// closes them, close() does so the descriptors do not outlive the
	// run. heldAtKill is the entry count the last killed incarnation
	// held in memory.
	abandoned  []storage.Log
	heldAtKill int
}

// replica is one running incarnation of a replica.
type replica struct {
	id      types.ReplicaID
	host    *node.Host
	stores  []*kvstore.Store
	logs    []storage.Log // as opened, beneath any decorator
	srv     *rpc.Server
	rpcAddr string
	tcp     *transport.TCPEndpoint // nil in hub mode
	// replayed records that this incarnation started over a log with
	// history, and so rejoined.
	replayed bool
}

func newCluster(w *workload, dir string, tr *tracer) (*cluster, error) {
	c := &cluster{w: w, dir: dir, tr: tr, reps: make([]*replica, w.replicas)}
	for i := 0; i < w.replicas; i++ {
		c.spec = append(c.spec, types.ReplicaID(i))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.sites != nil {
		c.matrix = wan.EC2Matrix(w.sites)
		c.hub = transport.NewHub(w.replicas, transport.HubOptions{Codec: true, Latency: c.matrix, Groups: w.groups})
	} else {
		addrs, err := freeAddrs(w.replicas)
		if err != nil {
			return nil, err
		}
		c.addrs = addrs
	}
	// Build every replica before starting any, then start them back to
	// back: all listeners are up before the first CLOCKTIME tick dials.
	for _, id := range c.spec {
		r, err := c.build(id)
		if err != nil {
			c.close()
			return nil, err
		}
		c.reps[id] = r
	}
	for _, r := range c.reps {
		if err := c.start(r); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// logBase is the -log path kvserver would be given for replica id.
func (c *cluster) logBase(id types.ReplicaID) string {
	return filepath.Join(c.dir, fmt.Sprintf("r%d.log", id))
}

// build constructs replica id over its on-disk logs (fresh or left by a
// crashed incarnation), mirroring cmd/kvserver's run().
func (c *cluster) build(id types.ReplicaID) (*replica, error) {
	w := c.w
	r := &replica{id: id, stores: make([]*kvstore.Store, w.groups), logs: make([]storage.Log, w.groups)}
	hostLogs := make([]storage.Log, w.groups)
	replay := make([]bool, w.groups)
	var table *reshard.Table
	var routesPath string
	if w.fileLog {
		base := c.logBase(id)
		routesPath = base + ".routes"
		var err error
		if table, err = reshard.Load(routesPath); err != nil {
			return nil, fmt.Errorf("routing table %s: %w", routesPath, err)
		}
		for g := 0; g < w.groups; g++ {
			fl, err := storage.OpenFileLog(shard.LogPath(base, types.GroupID(g), w.groups), storage.FileLogOptions{Mode: storage.SyncBatch})
			if err != nil {
				return nil, err
			}
			_, hasCP := fl.LastCheckpoint()
			replay[g] = fl.Len() > 0 || hasCP
			r.replayed = r.replayed || replay[g]
			r.logs[g], hostLogs[g] = fl, fl
			if c.tr != nil {
				hostLogs[g] = c.tr.fileLog(id, fl)
			}
		}
	} else {
		for g := range r.logs {
			nl := storage.NewNullLog()
			r.logs[g], hostLogs[g] = nl, nl
			if c.tr != nil {
				hostLogs[g] = c.tr.plainLog(id, nl)
			}
		}
	}

	var tr transport.Transport
	if c.hub != nil {
		tr = c.hub.Endpoint(id)
	} else {
		r.tcp = transport.NewTCP(id, c.addrs, transport.TCPOptions{Groups: w.groups})
		tr = r.tcp
	}
	opts := node.HostOptions{
		Groups:     w.groups,
		NewLog:     func(g types.GroupID) storage.Log { return hostLogs[g] },
		Table:      table,
		RoutesPath: routesPath,
	}
	if c.tr != nil {
		tr = c.tr.transport(tr, c.matrix)
		opts.Clock = c.tr.clock(clock.NewMonotonic(clock.System{}))
	}
	host, err := node.NewHost(id, c.spec, tr, opts)
	if err != nil {
		return nil, err
	}
	r.host = host
	for g := 0; g < w.groups; g++ {
		gid := types.GroupID(g)
		r.stores[g] = kvstore.New()
		app := &rsm.App{SM: r.stores[g]}
		if c.tr != nil {
			app.SM = c.tr.stateMachine(id, r.stores[g])
		}
		nd := host.Group(gid)
		host.Bind(gid, app)
		nd.SetProtocol(core.New(nd, app, core.Options{
			ClockTimeInterval: delta,
			SuspectTimeout:    w.suspect,
			ConsensusRetry:    w.consensusRetry,
			Replay:            replay[g],
			CheckpointEvery:   w.checkpointEvery,
		}))
	}
	return r, nil
}

// start launches a built replica: the host, the rejoin kvserver's
// -rejoin=auto performs after a replayed log, and the front door.
func (c *cluster) start(r *replica) error {
	if err := r.host.Start(); err != nil {
		return err
	}
	if r.replayed {
		for g := 0; g < c.w.groups; g++ {
			if err := r.host.Group(types.GroupID(g)).Rejoin(); err != nil {
				return fmt.Errorf("replica %v group %d rejoin: %w", r.id, g, err)
			}
		}
	}
	r.srv = rpc.NewServer(r.host, rpc.ServerOptions{Timeout: opTimeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.rpcAddr = ln.Addr().String()
	go r.srv.Serve(ln) // returns when r.srv.Close closes ln
	return nil
}

// kill stops replica id the way a process kill would: the event loops
// stop dead and the logs are left open, so everything appended after
// the last sync is lost.
func (c *cluster) kill(id types.ReplicaID) {
	r := c.reps[id]
	r.srv.Close()
	r.host.Stop()
	c.heldAtKill = 0
	for _, lg := range r.logs {
		c.heldAtKill += lg.Len()
		c.abandoned = append(c.abandoned, lg)
	}
	c.mu.Lock()
	c.reps[id] = nil
	c.mu.Unlock()
}

// live returns the replicas running right now.
func (c *cluster) live() []*replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*replica
	for _, r := range c.reps {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// restart boots a killed replica over the logs it left behind and
// returns how many log entries the kill lost: what the dead
// incarnation held in memory minus what the reopened files contain.
func (c *cluster) restart(id types.ReplicaID) (lostEntries int, err error) {
	r, err := c.build(id)
	if err != nil {
		return 0, err
	}
	onDisk := 0
	for _, lg := range r.logs {
		onDisk += lg.Len()
	}
	if err := c.start(r); err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.reps[id] = r
	c.mu.Unlock()
	return c.heldAtKill - onDisk, nil
}

// dial opens client i's connection to replica i's front door.
func (c *cluster) dial(i int) (*client.Client, error) {
	return client.Dial(client.Config{
		Addrs:  []string{c.reps[i].rpcAddr},
		Window: 256, // the front door's per-connection budget
	})
}

// close stops everything and removes the data directory.
func (c *cluster) close() {
	for _, r := range c.reps {
		if r == nil {
			continue
		}
		if r.srv != nil {
			r.srv.Close()
		}
		if r.host != nil {
			r.host.Stop()
		}
		for _, lg := range r.logs {
			if lg != nil {
				lg.Close() // the run is over; nothing is read back
			}
		}
	}
	for _, lg := range c.abandoned {
		lg.Close() // same
	}
	if c.hub != nil {
		c.hub.Close()
	}
	os.RemoveAll(c.dir) // scratch data; a leftover is only clutter
}

// Replica listen ports come from 10000-29999, below the range Linux
// draws the source ports of outgoing connections from. A port from that
// range, found free by listening on :0 and released, can be handed to
// one of this process's own dials before the replica binds it -- and a
// restarted replica's peers, redialing its closed port, can even
// connect to themselves.
const (
	portBase  = 10000
	portCount = 20000
)

// portCursor walks the port range; it starts at a per-process offset so
// two benchmark processes rarely probe the same ports.
var portCursor atomic.Uint32

func init() { portCursor.Store(uint32(os.Getpid() * 97)) }

// freeAddrs picks n distinct loopback TCP addresses nothing listens on.
func freeAddrs(n int) (map[types.ReplicaID]string, error) {
	addrs := make(map[types.ReplicaID]string, n)
	var lastErr error
	for tries := 0; len(addrs) < n; tries++ {
		if tries == portCount {
			return nil, fmt.Errorf("no free replica port in %d-%d: %w", portBase, portBase+portCount-1, lastErr)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", portBase+portCursor.Add(1)%portCount)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		ln.Close() // probe only; the replica binds it at Start
		addrs[types.ReplicaID(len(addrs))] = addr
	}
	return addrs, nil
}
