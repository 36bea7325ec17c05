package reshard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/types"
)

// fakeCluster runs the coordinator protocol against in-memory state
// machines sharing one holder: Propose applies the payload directly at
// the target group's (single) replica, which is exactly the
// commit-then-apply contract the real host provides.
type fakeCluster struct {
	holder *Holder
	sms    map[types.GroupID]*SM
	stores map[types.GroupID]*kvstore.Store
}

func newFakeCluster(groups, capacity int) *fakeCluster {
	c := &fakeCluster{
		holder: NewHolder(Legacy(groups), ""),
		sms:    make(map[types.GroupID]*SM),
		stores: make(map[types.GroupID]*kvstore.Store),
	}
	for g := 0; g < capacity; g++ {
		gid := types.GroupID(g)
		st := kvstore.New()
		c.stores[gid] = st
		c.sms[gid] = Wrap(gid, st, c.holder)
	}
	return c
}

func (c *fakeCluster) Table() *Table { return c.holder.Load() }

func (c *fakeCluster) Propose(_ context.Context, g types.GroupID, payload []byte) ([]byte, error) {
	sm, ok := c.sms[g]
	if !ok {
		return nil, fmt.Errorf("no group %v", g)
	}
	return sm.Apply(payload), nil
}

func (c *fakeCluster) SourceSnapshot(g types.GroupID, slots []uint32) ([]Pair, error) {
	return c.sms[g].SnapshotSlots(slots)
}

// seed writes n keys routed to group g and returns key→value.
func (c *fakeCluster) seed(t *testing.T, g types.GroupID, n int) map[string][]byte {
	t.Helper()
	tbl := c.holder.Load()
	out := make(map[string][]byte, n)
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatal("could not find enough keys for group")
		}
		key := fmt.Sprintf("co-%v-%d", g, i)
		if tbl.Group(key) != g {
			continue
		}
		val := []byte(fmt.Sprintf("v%d", i))
		c.sms[g].Apply(kvstore.Put(key, val))
		out[key] = val
	}
	return out
}

// TestCoordinatorSplit: a clean split fences, checkpoints, seeds, and
// flips; moved keys are served by the target with their frozen values,
// writes to moved keys at the source redirect, and the slot count and
// chunking arithmetic hold.
func TestCoordinatorSplit(t *testing.T) {
	c := newFakeCluster(2, 3)
	// Enough pairs that the moving half spans at least three chunks.
	data := c.seed(t, 0, 700)

	co := &Coordinator{Cluster: c}
	rep, err := co.Split(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 0 || rep.To != 2 || rep.Gen != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Slots != SlotsPerGroup/2 {
		t.Errorf("moved %d slots, want %d (half the source)", rep.Slots, SlotsPerGroup/2)
	}
	wantChunks := (rep.Pairs + DefaultChunkPairs - 1) / DefaultChunkPairs
	if rep.Chunks < 3 || rep.Chunks != wantChunks {
		t.Errorf("chunks = %d for %d pairs at %d/chunk, want %d (at least 3)", rep.Chunks, rep.Pairs, DefaultChunkPairs, wantChunks)
	}

	tbl := c.Table()
	if n := len(tbl.Migrations()); n != 0 {
		t.Fatalf("%d migrations left after a clean split", n)
	}
	if tbl.Groups() != 3 {
		t.Fatalf("Groups() = %d after split, want 3", tbl.Groups())
	}
	moved := 0
	for key, want := range data {
		g := tbl.Group(key)
		if g == 2 {
			moved++
			if got, ok := c.stores[2].Lookup(key); !ok || !bytes.Equal(got, want) {
				t.Fatalf("moved key %q at target = %q, %v; want %q", key, got, ok, want)
			}
			// A straggler write at the source must redirect, not apply.
			c.sms[0].Apply(kvstore.Put(key, []byte("stale")))
			if to, ok := c.sms[0].TakeRedirect(); !ok || to != 2 {
				t.Fatalf("straggler write to %q: redirect = %v, %v", key, to, ok)
			}
		} else if g != 0 {
			t.Fatalf("key %q routed to %v, want 0 or 2", key, g)
		}
	}
	if moved == 0 || rep.Pairs != moved {
		t.Fatalf("report says %d pairs, %d keys actually moved", rep.Pairs, moved)
	}
}

// TestCoordinatorCrashThenHeal: a coordinator that dies after the fence
// leaves the table migrating; Heal run by another coordinator rolls the
// split forward to the same final state a clean split reaches, and a
// racing duplicate transfer cannot regress data the target has since
// overwritten.
func TestCoordinatorCrashThenHeal(t *testing.T) {
	c := newFakeCluster(2, 3)
	data := c.seed(t, 0, 30)

	crashed := errors.New("coordinator crashed")
	co := &Coordinator{Cluster: c, OnPhase: func(p string) error {
		if p == PhaseInstall {
			return crashed
		}
		return nil
	}}
	if _, err := co.Split(context.Background(), 0, 2); !errors.Is(err, crashed) {
		t.Fatalf("crash injection: err = %v", err)
	}
	migs := c.Table().Migrations()
	if len(migs) != SlotsPerGroup/2 {
		t.Fatalf("%d migrations after crash, want %d", len(migs), SlotsPerGroup/2)
	}

	healer := &Coordinator{Cluster: c}
	reps, err := healer.Heal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Slots != SlotsPerGroup/2 {
		t.Fatalf("heal reports = %+v", reps)
	}
	if n := len(c.Table().Migrations()); n != 0 {
		t.Fatalf("%d migrations left after heal", n)
	}
	var movedKey string
	for key, want := range data {
		if c.Table().Group(key) != 2 {
			continue
		}
		movedKey = key
		if got, ok := c.stores[2].Lookup(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("healed key %q = %q, %v; want %q", key, got, ok, want)
		}
	}
	if movedKey == "" {
		t.Fatal("no seeded key landed in the migrated half")
	}

	// A second Heal finds nothing to do.
	if reps, err := healer.Heal(context.Background()); err != nil || len(reps) != 0 {
		t.Fatalf("idle heal = %+v, %v", reps, err)
	}

	// A straggling duplicate of the completed transfer (a second racing
	// coordinator finishing late) is absorbed: the target's seed record
	// makes the install a DUP, so a post-heal write survives it.
	c.sms[2].Apply(kvstore.Put(movedKey, []byte("post-heal")))
	mig := migs[uint32(c.Table().SlotOf(movedKey))]
	slots := make([]uint32, 0, len(migs))
	for s := range migs {
		slots = append(slots, s)
	}
	if _, err := healer.transfer(context.Background(), mig.Owner, mig.To, mig.Gen, slots); err != nil {
		t.Fatalf("duplicate transfer errored: %v", err)
	}
	if got, _ := c.stores[2].Lookup(movedKey); !bytes.Equal(got, []byte("post-heal")) {
		t.Fatalf("duplicate transfer regressed %q to %q", movedKey, got)
	}
}

// TestCoordinatorRejectsBadPlans: degenerate split requests fail before
// any command is replicated.
func TestCoordinatorRejectsBadPlans(t *testing.T) {
	c := newFakeCluster(2, 3)
	co := &Coordinator{Cluster: c}
	if _, err := co.Split(context.Background(), 0, 0); err == nil {
		t.Error("self-split was accepted")
	}
	if _, err := co.Split(context.Background(), 9, 2); err == nil {
		t.Error("split of an unknown source was accepted")
	}
}
