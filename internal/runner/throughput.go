package runner

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
)

// ThroughputConfig describes one throughput experiment (Figure 8,
// Section VI-D). It runs on the real runtime — goroutine replicas over
// the in-process transport with the binary codec enabled — so message
// processing cost is real CPU cost, which is what the paper measures
// ("in all cases, CPU is the bottleneck and message sending and
// receiving is the major consumer of CPU cycles"). Replicas log to main
// memory, as in the paper; Paxos and Paxos-bcast lead from replica 0.
type ThroughputConfig struct {
	Replicas          int
	Protocol          Protocol
	ClientsPerReplica int
	// PayloadSize is the command size (paper: 10, 100, 1000 bytes).
	PayloadSize int
	Warmup      time.Duration
	Duration    time.Duration
}

// withDefaults fills reasonable defaults for unset fields.
func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Replicas == 0 {
		c.Replicas = 5
	}
	if c.ClientsPerReplica == 0 {
		c.ClientsPerReplica = 16
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
	// OpsPerSec is committed client commands per second, summed over
	// all replicas.
	OpsPerSec float64
}

// saturationDelta is the CLOCKTIME interval of the saturation runs (the
// paper's 5 ms).
const saturationDelta = 5 * time.Millisecond

// RunThroughput saturates a local cluster with closed-loop zero-think
// clients and measures committed commands per second.
func RunThroughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	c, err := newCluster(clusterSpec{
		replicas: cfg.Replicas, groups: 1, log: logNull,
		protocol: cfg.Protocol,
		core:     core.Options{ClockTimeInterval: saturationDelta},
	})
	if err != nil {
		return nil, err
	}
	defer c.stop()

	// Closed-loop clients with zero think time: "clients send frequent
	// enough commands to all replicas to saturate them". Each client
	// pipelines through the ProposeKey future API; a future always
	// resolves — with the result, or ErrStopped when the host stops — so
	// no client can hang.
	var completed atomic.Uint64
	load := newClosedLoop()
	ctx, tbl := context.Background(), c.table()
	for _, r := range c.live() {
		for cli := 0; cli < cfg.ClientsPerReplica; cli++ {
			key, _ := clientKey(tbl, cli)
			host := r.host
			payload := kvstore.Put(key, make([]byte, cfg.PayloadSize))
			load.client(&completed, func() error {
				fut, err := host.ProposeKey(ctx, key, payload)
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
	if err := c.converged(10 * time.Second); err != nil {
		return nil, fmt.Errorf("throughput %s: %w", cfg.Protocol, err)
	}
	return &ThroughputResult{
		Protocol:    cfg.Protocol,
		PayloadSize: cfg.PayloadSize,
		OpsPerSec:   float64(completed.Load()) / elapsed.Seconds(),
	}, nil
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
