package consensus

import (
	"fmt"
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/sim"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// harness wires N Paxos participants over a simulated network.
type harness struct {
	cluster *sim.Cluster
	nodes   []*Paxos
	decided []map[uint64][]byte
}

// consensusProto adapts Paxos to sim's rsm.Protocol.
type consensusProto struct{ p *Paxos }

func (c *consensusProto) Start()                                      {}
func (c *consensusProto) Submit(types.Command)                        {}
func (c *consensusProto) Deliver(from types.ReplicaID, m msg.Message) { c.p.Deliver(from, m) }
func (c *consensusProto) NextCommandID() types.CommandID              { return types.CommandID{} }

func newHarness(t *testing.T, n int, jitter time.Duration) *harness {
	t.Helper()
	c := sim.NewCluster(wan.Uniform(n, 50*time.Millisecond), sim.ClusterOptions{Jitter: jitter, Seed: 7})
	h := &harness{cluster: c, decided: make([]map[uint64][]byte, n)}
	peers := make([]types.ReplicaID, n)
	for i := range peers {
		peers[i] = types.ReplicaID(i)
	}
	for i := 0; i < n; i++ {
		i := i
		h.decided[i] = make(map[uint64][]byte)
		p := New(types.ReplicaID(i), peers, c.Replicas[i], time.Second, func(k uint64, v []byte) {
			h.decided[i][k] = v
		})
		h.nodes = append(h.nodes, p)
		c.Replicas[i].SetProtocol(&consensusProto{p: p})
	}
	c.Start()
	return h
}

func (h *harness) run(d time.Duration) { h.cluster.Eng.RunUntil(d) }

// checkAgreement verifies every live replica decided the same value for
// instance k and that it is one of the proposed values.
func (h *harness) checkAgreement(t *testing.T, k uint64, proposed [][]byte, skip map[int]bool) {
	t.Helper()
	var val []byte
	seen := false
	for i, d := range h.decided {
		if skip[i] {
			continue
		}
		v, ok := d[k]
		if !ok {
			t.Fatalf("replica %d did not decide instance %d", i, k)
		}
		if !seen {
			val, seen = v, true
		} else if string(val) != string(v) {
			t.Fatalf("disagreement on instance %d: %q vs %q", k, val, v)
		}
	}
	for _, p := range proposed {
		if string(p) == string(val) {
			return
		}
	}
	t.Fatalf("decided value %q was never proposed", val)
}

func TestSingleProposerDecides(t *testing.T) {
	h := newHarness(t, 3, 0)
	h.nodes[0].Propose(1, []byte("cfg-a"))
	h.run(2 * time.Second)
	h.checkAgreement(t, 1, [][]byte{[]byte("cfg-a")}, nil)
}

func TestConcurrentProposersAgree(t *testing.T) {
	h := newHarness(t, 5, 10*time.Millisecond)
	proposed := [][]byte{[]byte("from-0"), []byte("from-2"), []byte("from-4")}
	h.nodes[0].Propose(1, proposed[0])
	h.nodes[2].Propose(1, proposed[1])
	h.nodes[4].Propose(1, proposed[2])
	h.run(30 * time.Second)
	h.checkAgreement(t, 1, proposed, nil)
}

func TestDecidesWithMinorityCrashed(t *testing.T) {
	h := newHarness(t, 5, 0)
	h.cluster.Crash(3)
	h.cluster.Crash(4)
	h.nodes[0].Propose(1, []byte("v"))
	h.run(5 * time.Second)
	h.checkAgreement(t, 1, [][]byte{[]byte("v")}, map[int]bool{3: true, 4: true})
}

func TestNoProgressWithoutMajority(t *testing.T) {
	h := newHarness(t, 5, 0)
	for i := 1; i < 5; i++ {
		h.cluster.Crash(types.ReplicaID(i))
	}
	h.nodes[0].Propose(1, []byte("v"))
	h.run(10 * time.Second)
	if _, ok := h.decided[0][1]; ok {
		t.Fatal("decided without a majority")
	}
}

func TestIndependentInstances(t *testing.T) {
	h := newHarness(t, 3, 0)
	h.nodes[0].Propose(1, []byte("one"))
	h.nodes[1].Propose(2, []byte("two"))
	h.run(5 * time.Second)
	h.checkAgreement(t, 1, [][]byte{[]byte("one")}, nil)
	h.checkAgreement(t, 2, [][]byte{[]byte("two")}, nil)
}

func TestLateProposerLearnsExistingDecision(t *testing.T) {
	h := newHarness(t, 3, 0)
	h.nodes[0].Propose(1, []byte("first"))
	h.run(2 * time.Second)
	// A second proposer with a different value must learn "first".
	h.nodes[1].Propose(1, []byte("second"))
	h.run(4 * time.Second)
	h.checkAgreement(t, 1, [][]byte{[]byte("first")}, nil)
	if v, ok := h.nodes[1].Decided(1); !ok || string(v) != "first" {
		t.Fatalf("late proposer sees %q, %v", v, ok)
	}
}

func TestProposerRetriesThroughPartition(t *testing.T) {
	h := newHarness(t, 3, 0)
	// Cut proposer 0 off from replica 1; it can still reach 2 (majority
	// with itself).
	h.cluster.Net.Partition(0, 1)
	h.nodes[0].Propose(1, []byte("v"))
	h.run(5 * time.Second)
	h.checkAgreement(t, 1, [][]byte{[]byte("v")}, map[int]bool{1: true})
	// Heal: replica 1 must catch up via a later proposal attempt.
	h.cluster.Net.Heal(0, 1)
	h.nodes[1].Propose(1, []byte("other"))
	h.run(10 * time.Second)
	h.checkAgreement(t, 1, [][]byte{[]byte("v")}, nil)
}

func TestManyInstancesSequential(t *testing.T) {
	h := newHarness(t, 5, 5*time.Millisecond)
	var want []string
	for k := uint64(1); k <= 10; k++ {
		v := fmt.Sprintf("epoch-%d", k)
		want = append(want, v)
		h.nodes[int(k)%5].Propose(k, []byte(v))
	}
	h.run(60 * time.Second)
	for k := uint64(1); k <= 10; k++ {
		h.checkAgreement(t, k, [][]byte{[]byte(want[k-1])}, nil)
	}
}

func TestDecidedLookup(t *testing.T) {
	h := newHarness(t, 3, 0)
	if _, ok := h.nodes[0].Decided(1); ok {
		t.Fatal("Decided before any proposal")
	}
	h.nodes[0].Propose(1, []byte("v"))
	h.run(2 * time.Second)
	if v, ok := h.nodes[2].Decided(1); !ok || string(v) != "v" {
		t.Fatalf("Decided = %q, %v", v, ok)
	}
}
