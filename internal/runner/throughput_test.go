package runner

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"clockrsm/internal/node"
)

// TestClosedLoopNamesTheFailure pins the harness contract: the first
// error a client hits comes back from measure instead of the client
// quietly leaving the load, and only a stopping node's ErrStopped — the
// shutdown itself — is not one.
func TestClosedLoopNamesTheFailure(t *testing.T) {
	boom := errors.New("protocol failure")
	var ok, failed atomic.Uint64
	load := newClosedLoop()
	load.client(&ok, func() error { time.Sleep(time.Millisecond); return nil })
	load.client(&failed, func() error { return boom })
	load.client(&failed, func() error {
		<-load.stop
		return node.ErrStopped
	})
	if _, err := load.measure(0, 20*time.Millisecond); !errors.Is(err, boom) {
		t.Fatalf("measure returned %v, want the client's failure", err)
	}
	if ok.Load() == 0 || failed.Load() != 0 {
		t.Fatalf("healthy client completed %d operations, failing clients %d", ok.Load(), failed.Load())
	}

	load = newClosedLoop()
	load.client(&failed, func() error { return node.ErrStopped })
	if _, err := load.measure(0, time.Millisecond); !errors.Is(err, node.ErrStopped) {
		t.Fatalf("ErrStopped while the load was running was swallowed: %v", err)
	}
}

func TestRunThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time throughput run")
	}
	for _, p := range []Protocol{ClockRSM, PaxosBcast, MenciusBcast, Paxos} {
		res, err := RunThroughput(ThroughputConfig{
			Replicas:          3,
			Protocol:          p,
			ClientsPerReplica: 4,
			PayloadSize:       100,
			Warmup:            100 * time.Millisecond,
			Duration:          300 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.OpsPerSec <= 0 {
			t.Errorf("%v: zero throughput", p)
		}
		t.Logf("%v: %.0f ops/s", p, res.OpsPerSec)
	}
}

func TestRunThroughputUnknownProtocol(t *testing.T) {
	if _, err := RunThroughput(ThroughputConfig{Protocol: "nope", Duration: 50 * time.Millisecond}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
