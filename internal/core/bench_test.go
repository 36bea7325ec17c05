package core

import (
	"testing"
	"time"

	"clockrsm/internal/rsm"
	"clockrsm/internal/sim"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// BenchmarkCommitPath measures the full protocol cost per committed
// command across a simulated 5-replica cluster (all messages, log
// appends and commit checks; zero virtual latency so protocol CPU
// dominates).
func BenchmarkCommitPath(b *testing.B) {
	c := sim.NewCluster(wan.Uniform(5, 0), sim.ClusterOptions{})
	reps := make([]*Replica, 5)
	for i, r := range c.Replicas {
		rep := New(r, &rsm.App{SM: rsm.NopSM{}}, Options{})
		reps[i] = rep
		r.SetProtocol(rep)
	}
	c.Start()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps[i%5].Submit(types.Command{
			ID:      types.CommandID{Origin: types.ReplicaID(i % 5), Seq: uint64(i)},
			Payload: payload,
		})
		c.Eng.RunUntilIdle()
	}
	b.StopTimer()
	if got := reps[0].Committed(); got != uint64(b.N) {
		b.Fatalf("committed %d, want %d", got, b.N)
	}
}

// BenchmarkPendingSet measures the PendingCmds queue operations: three
// origins' PREPAREs interleaved, popped in timestamp order behind a
// 64-command window.
func BenchmarkPendingSet(b *testing.B) {
	p := &pendingSet{q: make([]originQueue, 3)}
	cmd := types.Command{ID: types.CommandID{Origin: 0, Seq: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Add(types.Timestamp{Wall: int64(i), Node: types.ReplicaID(i % 3)}, cmd)
		if p.Len() > 64 {
			p.PopMin()
		}
	}
}

// BenchmarkStableCheck measures the COMMITTED(ts) stable-order check.
func BenchmarkStableCheck(b *testing.B) {
	c := sim.NewCluster(wan.Uniform(7, time.Millisecond), sim.ClusterOptions{})
	rep := New(c.Replicas[0], &rsm.App{SM: rsm.NopSM{}}, Options{})
	for k := range rep.latestTV {
		rep.latestTV[k] = 1000
	}
	ts := types.Timestamp{Wall: 999, Node: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !rep.stable(ts) {
			b.Fatal("unexpectedly unstable")
		}
	}
}
