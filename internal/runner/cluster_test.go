package runner

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// TestClusterKinds brings the fixture up every way a scenario can ask
// for — hub, hub + latency matrix, loopback TCP, over null, memory and
// file logs — commits a few writes through it and requires converged.
// The file-log rows also kill and restart a replica in between: it must
// replay, rejoin on its own and catch up.
func TestClusterKinds(t *testing.T) {
	nets := []struct {
		name    string
		tcp     bool
		latency *wan.Matrix
	}{
		{name: "hub"},
		{name: "hub+matrix", latency: wan.Uniform(3, time.Millisecond)},
		{name: "tcp", tcp: true},
	}
	logs := []struct {
		name string
		kind logKind
	}{{"null", logNull}, {"mem", logMem}, {"file", logFile}}
	for _, nw := range nets {
		for _, lg := range logs {
			t.Run(nw.name+"/"+lg.name, func(t *testing.T) {
				t.Parallel()
				c, err := newCluster(clusterSpec{
					replicas: 3, groups: 2,
					tcp: nw.tcp, latency: nw.latency, log: lg.kind, dir: t.TempDir(),
					core:   core.Options{ClockTimeInterval: faultDelta, ConsensusRetry: faultConsensusRetry},
					debugf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.stop()
				w := c.startWriters(c.clientKeys(4), churnStep)
				awaitAcked(t, w, 8)
				if lg.kind == logFile {
					killed := c.rep(2).host.Status()
					if err := c.kill(2); err != nil {
						t.Fatal(err)
					}
					r, err := c.restart(2)
					if err != nil {
						t.Fatal(err)
					}
					awaitRejoined(t, r, killed)
					awaitAcked(t, w, w.acked.Load()+8)
				}
				if err := w.finish(); err != nil {
					t.Fatal(err)
				}
				if err := c.converged(churnRecovery); err != nil {
					t.Fatal(err)
				}
				if err := w.survived(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// awaitRejoined waits until every group of the restarted incarnation r
// is configured at an epoch above the one it had when it was killed: the
// restart rejoined by itself.
func awaitRejoined(t *testing.T, r *replica, killed node.HostStatus) {
	t.Helper()
	for deadline := time.Now().Add(churnRecovery); ; time.Sleep(time.Millisecond) {
		st := r.host.Status()
		done := true
		for g, gs := range st.Groups {
			done = done && gs.InConfig && gs.Epoch > killed.Groups[g].Epoch
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica did not rejoin: status %+v, at the kill %+v", st.Groups, killed.Groups)
		}
	}
}

func awaitAcked(t *testing.T, w *ackedWriters, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(churnStep); w.acked.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d writes acked, want %d", w.acked.Load(), n)
		}
	}
}

// TestConvergedNamesTheViolation proves the checkers every scenario
// inherits fire: a duplicate execution and a diverged store each fail
// converged by name.
func TestConvergedNamesTheViolation(t *testing.T) {
	up := func(t *testing.T) *cluster {
		c, err := newCluster(clusterSpec{replicas: 3, groups: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.stop)
		if err := c.converged(time.Second); err != nil {
			t.Fatalf("idle cluster: %v", err)
		}
		return c
	}
	t.Run("duplicate", func(t *testing.T) {
		c := up(t)
		ts := types.Timestamp{Wall: 7, Node: 1}
		c.rep(1).dups[1].observe(ts, types.CommandID{Origin: 1, Seq: 1})
		c.rep(1).dups[1].observe(ts, types.CommandID{Origin: 1, Seq: 1})
		err := c.converged(time.Second)
		if err == nil || !strings.Contains(err.Error(), "replica r1 group 1 executed 1 commands more than once") {
			t.Fatalf("converged = %v, want the duplicate execution named", err)
		}
	})
	t.Run("diverged", func(t *testing.T) {
		c := up(t)
		c.rep(2).host.Group(0).Do(func() { c.rep(2).stores[0].Apply(kvstore.Put("only-here", []byte("x"))) })
		err := c.converged(50 * time.Millisecond)
		want := fmt.Sprintf("group 0: replica %v (0 keys) and replica %v (1 keys) diverge", types.ReplicaID(0), types.ReplicaID(2))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("converged = %v, want %q", err, want)
		}
	})
}
