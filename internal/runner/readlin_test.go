package runner

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// readEv is one completed local read: what it observed and when.
type readEv struct {
	g     types.GroupID
	key   string
	tier  node.Tier
	value []byte
	start time.Time
	end   time.Time
	// sess identifies the session of a Sequential read (-1 otherwise);
	// seq orders reads within their session.
	sess int
	seq  int
	// watermark is the executed watermark the read was served at.
	watermark int64
}

// read issues one local read through the public Host.ReadKey API and
// records it for verification. sess < 0 means no session.
func (h *mgHarness) read(at types.ReplicaID, key string, lvl node.Level, sess int, seq int) {
	h.t.Helper()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := h.hosts[at].ReadKey(ctx, key, kvstore.Get(key), lvl)
	if err != nil {
		h.t.Errorf("ReadKey(%q, %v): %v", key, lvl.Tier(), err)
		return
	}
	end := time.Now()
	if res.Replicated {
		h.t.Errorf("ReadKey(%q, %v): fell back to replication under Clock-RSM", key, lvl.Tier())
		return
	}
	h.mu.Lock()
	h.reads = append(h.reads, readEv{
		g: h.hosts[at].Table().Group(key), key: key, tier: lvl.Tier(),
		value: res.Value, start: start, end: end,
		sess: sess, seq: seq, watermark: res.Watermark,
	})
	h.mu.Unlock()
}

// keyWrite is one write to a key in its group's execution order:
// position p means "the key's state after this write is values[p]".
type keyWrite struct {
	id     gcid
	after  []byte // key value after this write applies
	submit time.Time
	reply  time.Time
	timed  bool // submit/reply recorded (the write's wait completed)
}

// verifyReads checks every recorded read against the group's committed
// write history for its key. For each read, the set of history
// positions consistent with real time is computed — a read may not
// observe state missing a write that completed before the read began
// (Linearizable only), and may never observe a write submitted after
// the read ended (every tier) — and the observed value must match one
// of them. Sequential reads must additionally observe non-decreasing
// positions within their session, and non-decreasing watermarks.
//
// Writes in the workload must carry values unique per key, so a value
// identifies exactly one history position (nil identifies the initial
// state).
func (h *mgHarness) verifyReads() {
	h.t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()

	// Per (group, key): the ordered write history, replayed from the
	// group's reference execution order.
	type gkey struct {
		g   types.GroupID
		key string
	}
	hist := make(map[gkey][]keyWrite)
	for g := 0; g < h.groups; g++ {
		ref := h.orders[0][g]
		replay := kvstore.New()
		for _, cid := range ref {
			k := gcid{types.GroupID(g), cid}
			payload := h.payloads[k]
			cmd, err := kvstore.Decode(payload)
			if err != nil {
				h.t.Fatalf("group %d: undecodable committed payload for %v", g, cid)
			}
			replay.Apply(payload)
			if cmd.Op == kvstore.OpGet {
				continue // replicated reads don't change key state
			}
			after, _ := replay.Lookup(cmd.Key)
			gk := gkey{types.GroupID(g), cmd.Key}
			w := keyWrite{id: k, after: after}
			if sub, ok := h.submits[k]; ok {
				if rep, ok := h.replies[k]; ok {
					w.submit, w.reply, w.timed = sub, rep, true
				}
			}
			hist[gk] = append(hist[gk], w)
		}
	}

	// position finds the unique history position of an observed value:
	// 0 = initial state (nil), p = after the p-th write. Workloads
	// verified here use per-key-unique values, so at most one position
	// matches a non-nil value.
	position := func(writes []keyWrite, value []byte) (int, bool) {
		if value == nil {
			return 0, true
		}
		for i, w := range writes {
			if string(w.after) == string(value) {
				return i + 1, true
			}
		}
		return 0, false
	}

	// Session reads are issued sequentially by one goroutine each, so
	// h.reads already lists every session's reads in issue order.
	type skey struct {
		sess int
		g    types.GroupID
		key  string
	}
	sessFloor := make(map[skey]int)  // (session, key) → minimum position
	sessWater := make(map[int]int64) // session → last watermark

	for _, r := range h.reads {
		writes := hist[gkey{r.g, r.key}]
		p, ok := position(writes, r.value)
		if !ok {
			h.t.Fatalf("%v read of %q observed %q, which no committed write produced",
				r.tier, r.key, r.value)
		}
		// Upper bound: state at position p includes every write ≤ p, so
		// p must precede the first write submitted after the read ended.
		for j := 0; j < p; j++ {
			if writes[j].timed && writes[j].submit.After(r.end) {
				h.t.Fatalf("%v read of %q observed position %d, but write %d was submitted after the read ended",
					r.tier, r.key, p, j+1)
			}
		}
		// Lower bound, Linearizable only: every write whose reply
		// preceded the read's start must be visible.
		if r.tier == node.TierLinearizable {
			for j := p; j < len(writes); j++ {
				if writes[j].timed && writes[j].reply.Before(r.start) {
					h.t.Fatalf("linearizable read of %q observed position %d, missing write %d that completed before the read began",
						r.key, p, j+1)
				}
			}
		}
		// Session monotonicity: positions per (session, key) and
		// watermarks per session never decrease.
		if r.tier == node.TierSequential && r.sess >= 0 {
			sk := skey{r.sess, r.g, r.key}
			if p < sessFloor[sk] {
				h.t.Fatalf("sequential session %d read of %q went backwards: position %d after %d",
					r.sess, r.key, p, sessFloor[sk])
			}
			sessFloor[sk] = p
			if w := sessWater[r.sess]; r.watermark < w {
				h.t.Fatalf("sequential session %d watermark regressed %d -> %d", r.sess, w, r.watermark)
			}
			sessWater[r.sess] = r.watermark
		}
	}
}

// TestReadPathLinearizability hammers a sharded cluster with concurrent
// writers and readers at all three levels over a contended key space —
// writes through ProposeKey, reads through ReadKey — and checks that
// every read fits the per-key committed history interleaved with the
// writes: linearizable reads never miss a completed write, no read
// observes a value from the future, and sessions never move backwards.
func TestReadPathLinearizability(t *testing.T) {
	const (
		replicas = 3
		groups   = 2
		writers  = 4
		readers  = 6
		perCli   = 25
		keys     = 5
	)
	// Directionally asymmetric propagation delay: links INTO replica 2
	// are slow, links OUT of it are fast. Its clock broadcasts reach
	// the others promptly — so writes at 0/1 satisfy the stability rule
	// and complete quickly — while PREPAREs and acks take 8 ms to reach
	// 2, leaving its local state stale for whole milliseconds after a
	// write completed elsewhere. This window is what gives the checks
	// teeth: under symmetric latency Clock-RSM's stability rule makes
	// every replica commit almost simultaneously (the origin waits for
	// the slowest clock), and a deliberately broken read path — serve
	// immediately, never wait for the watermark — passes undetected.
	// SetOneWay is essential here: Set writes both directions, so a
	// symmetric-API loop silently re-symmetrizes the matrix as later
	// iterations overwrite the slow entries.
	lat := wan.Uniform(replicas, time.Millisecond)
	for i := types.ReplicaID(0); i < replicas; i++ {
		if i != 2 {
			lat.SetOneWay(i, 2, 8*time.Millisecond)
		}
	}
	if lat.Asymmetry(0, 2) <= 0 {
		t.Fatal("latency matrix is not direction-skewed; the staleness window this test depends on does not exist")
	}
	h := newMGHarnessLat(t, replicas, groups, lat)
	var wg sync.WaitGroup

	// Writers: unique values per key, so a read's observation
	// identifies exactly one history position. Readers run concurrently
	// for the whole write phase — the stale window at replica 2 only
	// exists while writes are completing.
	var successes, attempts int64
	var cm sync.Mutex
	var writersDone sync.WaitGroup
	for c := 0; c < writers; c++ {
		wg.Add(1)
		writersDone.Add(1)
		go func(c int) {
			defer wg.Done()
			defer writersDone.Done()
			rng := rand.New(rand.NewSource(int64(c)*211 + 3))
			for k := 0; k < perCli; k++ {
				at := types.ReplicaID(rng.Intn(replicas))
				key := fmt.Sprintf("rk%d", rng.Intn(keys))
				h.call(at, key, kvstore.Put(key, []byte(fmt.Sprintf("u-%d-%d", c, k))))
				cm.Lock()
				successes++
				attempts++
				cm.Unlock()
			}
		}(c)
	}
	writing := make(chan struct{})
	go func() { writersDone.Wait(); close(writing) }()

	// Readers: one session each; a random level and replica per read,
	// paced to interleave with the writes until the last one lands.
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*307 + 11))
			sess := node.Session{}
			for k := 0; ; k++ {
				select {
				case <-writing:
					return
				default:
				}
				at := types.ReplicaID(rng.Intn(replicas))
				key := fmt.Sprintf("rk%d", rng.Intn(keys))
				switch rng.Intn(3) {
				case 0:
					h.read(at, key, node.Linearizable, -1, k)
				case 1:
					h.read(at, key, node.Sequential(&sess), c, k)
				default:
					h.read(at, key, node.Stale(0), -1, k)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(c)
	}
	wg.Wait()
	h.waitConverged(10 * time.Second)
	if t.Failed() {
		t.FailNow()
	}
	h.verify(int(successes), int(attempts))
	h.verifyReads()

	// The run actually interleaved: every tier was exercised while
	// writes were in flight.
	h.mu.Lock()
	tiers := make(map[node.Tier]int)
	for _, r := range h.reads {
		tiers[r.tier]++
	}
	h.mu.Unlock()
	for _, tier := range []node.Tier{node.TierLinearizable, node.TierSequential, node.TierStale} {
		if tiers[tier] < 5 {
			t.Fatalf("only %d %v reads recorded — workload did not interleave", tiers[tier], tier)
		}
	}
}
