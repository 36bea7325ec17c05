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
// five-replica, one-group Clock-RSM cluster saturated by closed-loop
// writers (which also keep the executed watermark hot) plus closed-loop
// readers issuing GETs in the configured mode.
type ReadPathConfig struct {
	Mode     ReadMode
	Warmup   time.Duration
	Duration time.Duration
}

const (
	readPathReplicas = 5
	// readPathWriters closed-loop writers per replica keep background
	// write load on the cluster; readPathReaders closed-loop readers per
	// replica issue GETs in Mode.
	readPathWriters = 8
	readPathReaders = 16
	// readPathPayload is the written value size in bytes.
	readPathPayload = 100
)

func (c ReadPathConfig) withDefaults() ReadPathConfig {
	if c.Mode == "" {
		c.Mode = ReadLinearizable
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
// routing a deployment uses.
func RunReadPath(cfg ReadPathConfig) (*ReadPathResult, error) {
	cfg = cfg.withDefaults()
	c, err := newCluster(clusterSpec{
		replicas: readPathReplicas, groups: 1, log: logNull,
		core: core.Options{ClockTimeInterval: saturationDelta},
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()
	tbl := c.table()

	var reads, writes, writesProposed atomic.Uint64
	load := newClosedLoop()
	ctx := context.Background()
	for _, r := range c.live() {
		// Closed-loop writers: sustained background load; the commit
		// cascade they drive keeps the watermark within one turn of the
		// clock, so linearizable reads rarely park for long.
		for cli := 0; cli < readPathWriters; cli++ {
			key, g := clientKey(tbl, cli)
			target := r.host.Group(g)
			payload := kvstore.Put(key, make([]byte, readPathPayload))
			load.client(&writes, func() error {
				writesProposed.Add(1)
				fut, err := target.Propose(ctx, payload)
				if err == nil {
					_, err = fut.Result()
				}
				return err
			})
		}
		// Closed-loop readers: each reads the key a writer with the same
		// index writes, in the configured mode.
		for cli := 0; cli < readPathReaders; cli++ {
			key, g := clientKey(tbl, cli%readPathWriters)
			query := kvstore.Get(key)
			target := r.host.Group(g)
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
	if err := c.converged(10 * time.Second); err != nil {
		return nil, fmt.Errorf("read path %s: %w", cfg.Mode, err)
	}

	// Every proposal beyond the writers' own was a read that entered
	// the replication path — zero in the local modes.
	var proposed uint64
	for _, r := range c.live() {
		for _, g := range r.host.Status().Groups {
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
