package reshard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clockrsm/internal/shard"
	"clockrsm/internal/types"
)

// TestLegacyMatchesRouter proves the genesis table is placement-
// identical to hash-mod-G routing: bringing the table up over an
// existing cluster moves no key.
func TestLegacyMatchesRouter(t *testing.T) {
	for _, g := range []int{1, 2, 3, 4, 7, 16} {
		tbl := Legacy(g)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%d-%d", g, i)
			want := types.GroupID(shard.Hash(key) % uint32(g))
			if got := tbl.Group(key); got != want {
				t.Fatalf("g=%d key %q: table routes to %v, hash-mod-G to %v", g, key, got, want)
			}
		}
	}
}

// TestTableDeterminism: the same table routes the same key identically
// across independently constructed instances.
func TestTableDeterminism(t *testing.T) {
	a, b := Legacy(4), Legacy(4)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Group(key) != b.Group(key) || a.SlotOf(key) != b.SlotOf(key) {
			t.Fatalf("key %q routed differently by identical tables", key)
		}
	}
}

// applySplit simulates a completed split on a table: fence then flip,
// as the replicated control commands would.
func applySplit(t *Table, src, dst types.GroupID) (*Table, []uint32, error) {
	slots, gen, err := t.PlanSplit(src, dst)
	if err != nil {
		return t, nil, err
	}
	fence := make(map[uint32]Claim, len(slots))
	flip := make(map[uint32]Claim, len(slots))
	for _, s := range slots {
		fence[s] = Claim{Gen: gen, Phase: Migrating, Owner: src, To: dst}
		flip[s] = Claim{Gen: gen, Phase: Owned, Owner: dst}
	}
	t, _ = t.Merge(fence)
	t, _ = t.Merge(flip)
	return t, slots, nil
}

// TestSplitsCoverWithoutOverlap: after an arbitrary sequence of splits,
// every slot has exactly one owner, the slot space never changes size,
// and the per-group slot sets partition it.
func TestSplitsCoverWithoutOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := Legacy(2)
	nslots := tbl.NumSlots()
	groups := 2
	for step := 0; step < 12; step++ {
		src := types.GroupID(rng.Intn(groups))
		dst := types.GroupID(groups)
		nt, _, err := applySplit(tbl, src, dst)
		if err != nil {
			continue // source ran out of splittable slots; try another
		}
		tbl = nt
		groups++
		if tbl.NumSlots() != nslots {
			t.Fatalf("step %d: slot space changed: %d -> %d", step, nslots, tbl.NumSlots())
		}
		total := 0
		for g := 0; g < groups; g++ {
			total += len(tbl.OwnedSlots(types.GroupID(g)))
		}
		if total != nslots {
			t.Fatalf("step %d: per-group slot sets sum to %d, want %d (overlap or gap)", step, total, nslots)
		}
		if tbl.Groups() != groups {
			t.Fatalf("step %d: Groups() = %d, want %d", step, tbl.Groups(), groups)
		}
		if n := len(tbl.Migrations()); n != 0 {
			t.Fatalf("step %d: %d migrations left after a completed split", step, n)
		}
	}
}

// TestMergeMonotoneOrderIndependent: folding the same claims in any
// order yields the same table, and stale claims never roll it back.
func TestMergeMonotoneOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := Legacy(3)
	// Claims mirror the protocol invariant: a (slot, gen) pair is
	// written by exactly one split, so its contents are a function of
	// the pair — a gen-g fence always names the same source and target.
	claimFor := func(slot, gen uint32, ph Phase) Claim {
		src := types.GroupID((slot + gen) % 4)
		dst := types.GroupID((slot + gen + 1) % 4)
		if ph == Migrating {
			return Claim{Gen: gen, Phase: Migrating, Owner: src, To: dst}
		}
		return Claim{Gen: gen, Phase: Owned, Owner: dst}
	}
	var updates []map[uint32]Claim
	for i := 0; i < 20; i++ {
		m := make(map[uint32]Claim)
		for j := 0; j < 5; j++ {
			slot := uint32(rng.Intn(base.NumSlots()))
			m[slot] = claimFor(slot, uint32(rng.Intn(4)), Phase(rng.Intn(2)))
		}
		updates = append(updates, m)
	}
	apply := func(order []int) []Claim {
		tbl := base
		for _, i := range order {
			tbl, _ = tbl.Merge(updates[i])
		}
		return tbl.Slots
	}
	fwd := make([]int, len(updates))
	rev := make([]int, len(updates))
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(updates) - 1 - i
	}
	shuf := rng.Perm(len(updates))
	a, b, c := apply(fwd), apply(rev), apply(shuf)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Fatal("merge result depends on application order")
	}
	// Monotone: re-merging gen-0 Owned claims over a split table is a
	// no-op.
	split, slots, err := applySplit(base, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	stale := make(map[uint32]Claim, len(slots))
	for _, s := range slots {
		stale[s] = Claim{Gen: 0, Phase: Owned, Owner: 0}
	}
	after, changed := split.Merge(stale)
	if changed || !reflect.DeepEqual(after.Slots, split.Slots) {
		t.Fatal("stale claims rolled the table back")
	}
}

// TestPlanSplitProperties: the plan moves the smaller half, bumps the
// generation past every moving slot, and rejects degenerate requests.
func TestPlanSplitProperties(t *testing.T) {
	tbl := Legacy(2)
	slots, gen, err := tbl.PlanSplit(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	owned := len(tbl.OwnedSlots(0))
	if len(slots) != owned/2 {
		t.Errorf("plan moves %d of %d slots, want the smaller half (%d)", len(slots), owned, owned/2)
	}
	if gen != 1 {
		t.Errorf("gen = %d, want 1 over a generation-0 table", gen)
	}
	for _, s := range slots {
		if tbl.Slots[s].Owner != 0 {
			t.Errorf("plan includes slot %d owned by %v", s, tbl.Slots[s].Owner)
		}
	}
	if _, _, err := tbl.PlanSplit(0, 0); err == nil {
		t.Error("self-split was not rejected")
	}
	// A group with a single stable slot cannot split.
	small := &Table{Version: 1, Slots: []Claim{{Owner: 0}, {Owner: 1}}}
	if _, _, err := small.PlanSplit(0, 2); err == nil {
		t.Error("splitting a one-slot group was not rejected")
	}
}

// TestSplitBalance: after splitting group 0, key traffic lands on the
// new group in proportion to the slots it took (within tolerance) —
// the table balances like the hash router it replaced.
func TestSplitBalance(t *testing.T) {
	tbl, slots, err := applySplit(Legacy(2), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000
	counts := make(map[types.GroupID]int)
	for i := 0; i < n; i++ {
		counts[tbl.Group(fmt.Sprintf("balance-key-%d", i))]++
	}
	want := float64(len(slots)) / float64(tbl.NumSlots()) // g2's slot share
	got := float64(counts[2]) / n
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("group 2 received %.3f of keys, want ~%.3f (slot share)", got, want)
	}
}
