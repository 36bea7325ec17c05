package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/rsm"
	"clockrsm/internal/shard"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// ReadMode selects how reads are issued in a read-path experiment.
type ReadMode string

// Read modes: one replicated baseline and the three local tiers.
const (
	// ReadReplicated sends every GET through the log as a command — the
	// pre-read-path behavior, and the baseline the local tiers are
	// measured against.
	ReadReplicated ReadMode = "replicated"
	// ReadLinearizable uses node.Linearizable local reads.
	ReadLinearizable ReadMode = "linearizable"
	// ReadSequential uses node.Sequential local reads, one session per
	// reader client.
	ReadSequential ReadMode = "sequential"
	// ReadStale uses unbounded node.Stale local reads.
	ReadStale ReadMode = "stale"
)

// ReadPathConfig describes one read-path throughput experiment: a
// five-replica Clock-RSM cluster saturated by closed-loop writers
// (which also keep the executed watermark hot) plus closed-loop readers
// issuing GETs in the configured mode.
type ReadPathConfig struct {
	Replicas int
	Groups   int
	Mode     ReadMode
	// WriteClientsPerReplica closed-loop writers keep background write
	// load on the cluster (default 8 per group).
	WriteClientsPerReplica int
	// ReadClientsPerReplica closed-loop readers issue GETs in Mode
	// (default 16 per group).
	ReadClientsPerReplica int
	PayloadSize           int
	Warmup                time.Duration
	Duration              time.Duration
}

func (c ReadPathConfig) withDefaults() ReadPathConfig {
	if c.Replicas == 0 {
		c.Replicas = 5
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	if c.Mode == "" {
		c.Mode = ReadLinearizable
	}
	if c.WriteClientsPerReplica == 0 {
		c.WriteClientsPerReplica = 8 * c.Groups
	}
	if c.ReadClientsPerReplica == 0 {
		c.ReadClientsPerReplica = 16 * c.Groups
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

// ReadPathResult reports one read-path measurement.
type ReadPathResult struct {
	Mode           ReadMode
	ReadOpsPerSec  float64
	WriteOpsPerSec float64
	// ReadsReplicated counts reads that entered the replication path
	// (proposals beyond the writers' own). Zero for the local modes —
	// the "no PREPARE broadcast" check — and equal to the number of
	// reads for ReadReplicated.
	ReadsReplicated uint64
}

// RunReadPath saturates a local Clock-RSM cluster with closed-loop
// writers and readers and measures committed writes and served reads
// per second. Readers read the keys the writers write, through the same
// shard routing a deployment uses.
func RunReadPath(cfg ReadPathConfig) (*ReadPathResult, error) {
	cfg = cfg.withDefaults()
	n := cfg.Replicas
	hub := transport.NewHub(n, transport.HubOptions{Codec: true, Groups: cfg.Groups})
	defer hub.Close()
	router := shard.NewRouter(cfg.Groups)

	spec := make([]types.ReplicaID, n)
	for i := range spec {
		spec[i] = types.ReplicaID(i)
	}

	var reads, writes atomic.Uint64

	hosts := make([]*node.Host, n)
	for i := 0; i < n; i++ {
		host, err := node.NewHost(types.ReplicaID(i), spec, hub.Endpoint(types.ReplicaID(i)), node.HostOptions{
			Groups: cfg.Groups,
			NewLog: func(types.GroupID) storage.Log { return storage.NewNullLog() },
		})
		if err != nil {
			return nil, err
		}
		for g := 0; g < cfg.Groups; g++ {
			app := &rsm.App{SM: kvstore.New()}
			nd := host.Group(types.GroupID(g))
			nd.Bind(app)
			nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 5 * time.Millisecond}))
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

	load := newClosedLoop()
	ctx := context.Background()
	var writesProposed atomic.Uint64

	// Closed-loop writers: sustained background load; the commit
	// cascade they drive keeps the watermark within one turn of the
	// clock, so linearizable reads rarely park for long.
	for i := 0; i < n; i++ {
		for c := 0; c < cfg.WriteClientsPerReplica; c++ {
			key, g := clientKey(router, c)
			target := hosts[i].Group(g)
			payload := kvstore.Put(key, make([]byte, cfg.PayloadSize))
			load.client(&writes, func() error {
				writesProposed.Add(1)
				fut, err := target.Propose(ctx, payload)
				if err == nil {
					_, err = fut.Result()
				}
				return err
			})
		}
	}

	// Closed-loop readers: each reads the key a writer with the same
	// index writes, in the configured mode.
	for i := 0; i < n; i++ {
		for c := 0; c < cfg.ReadClientsPerReplica; c++ {
			key, g := clientKey(router, c%cfg.WriteClientsPerReplica)
			query := kvstore.Get(key)
			target := hosts[i].Group(g)
			sess, turn := new(node.Session), 0
			load.client(&reads, func() (err error) {
				switch cfg.Mode {
				case ReadReplicated:
					var fut *node.Future
					if fut, err = target.Propose(ctx, query); err == nil {
						_, err = fut.Result()
					}
				case ReadLinearizable:
					_, err = target.Read(ctx, query, node.Linearizable)
				case ReadSequential:
					_, err = target.Read(ctx, query, node.Sequential(sess))
				default: // ReadStale
					_, err = target.Read(ctx, query, node.Stale(0))
					// Stale reads never block — that is their point — so
					// a zero-think closed loop of them would starve the
					// replicas' event loops on few-core hosts. Yield
					// periodically so the cluster keeps committing
					// underneath without capping the read rate.
					if turn++; turn&63 == 0 {
						runtime.Gosched()
					}
				}
				return err
			})
		}
	}

	elapsed, err := load.measure(cfg.Warmup, cfg.Duration)
	if err != nil {
		return nil, fmt.Errorf("read path %s: client: %w", cfg.Mode, err)
	}

	// Every proposal beyond the writers' own was a read that entered
	// the replication path — zero in the local modes.
	var proposed uint64
	for _, host := range hosts {
		for _, g := range host.Status().Groups {
			proposed += g.Proposed
		}
	}
	repl := uint64(0)
	if wp := writesProposed.Load(); proposed > wp {
		repl = proposed - wp
	}

	return &ReadPathResult{
		Mode:            cfg.Mode,
		ReadOpsPerSec:   float64(reads.Load()) / elapsed.Seconds(),
		WriteOpsPerSec:  float64(writes.Load()) / elapsed.Seconds(),
		ReadsReplicated: repl,
	}, nil
}

// ReadScaling measures read throughput in each mode under the same
// background write load: the replicated baseline against the three
// local tiers, recorded in BENCH_5.json. Local reads bypass the
// PREPARE broadcast entirely, so the gap over ReadReplicated is the
// replication cost every pre-read-path GET was paying.
func ReadScaling(modes []ReadMode, perRun time.Duration) ([]ReadPathResult, error) {
	if len(modes) == 0 {
		modes = []ReadMode{ReadReplicated, ReadLinearizable, ReadSequential, ReadStale}
	}
	var out []ReadPathResult
	for _, m := range modes {
		res, err := RunReadPath(ReadPathConfig{Mode: m, Duration: perRun})
		if err != nil {
			return nil, err
		}
		out = append(out, *res)
	}
	return out, nil
}
