// Package reshard implements elastic resharding for the multi-group
// stack: a versioned slot-based routing table that replaces the fixed
// FNV mod-G key→group map as the source of truth, a state-machine
// wrapper that replicates routing changes through each group's own
// Clock-RSM log (fence and install control commands), and a split
// coordinator that moves a slice of one group's key space to another
// group live — checkpoint, seed, fence, flip — without losing
// linearizability across the boundary.
//
// The table is hash-range based: the key space is divided into a fixed
// number of slots (256 per initial group), a key's slot is its FNV-1a
// hash mod NumSlots, and each slot carries a claim naming its owning
// group. The initial table assigns slot s to group s mod G, which is
// mathematically identical to the legacy hash-mod-G router (because
// h % (G·256) % G == h % G), so bringing the table up over existing
// logs changes no key's placement. Claims are versioned by a per-slot
// generation and merge monotonically — the highest (generation, phase)
// wins — so replicas converge to one table regardless of the order in
// which they observe fence and install commands.
package reshard

import (
	"fmt"
	"sort"

	"clockrsm/internal/shard"
	"clockrsm/internal/types"
)

// SlotsPerGroup is the number of hash slots allocated per initial
// group. 256 slots per group keeps split granularity fine (a split
// moves half a group's slots) while the whole table stays a few KiB.
const SlotsPerGroup = 256

// Phase is a slot claim's lifecycle state.
type Phase uint8

const (
	// Owned means the slot is stably owned by Claim.Owner.
	Owned Phase = iota
	// Migrating means the slot is fenced at Claim.Owner and its keys
	// are moving to Claim.To. Writes routed to the owner are redirected
	// until the install flips the claim to Owned at the target.
	Migrating
)

func (p Phase) String() string {
	if p == Migrating {
		return "migrating"
	}
	return "owned"
}

// Claim records one slot's ownership. Claims are totally ordered by
// (Gen, Phase): a higher generation always wins, and within one
// generation Owned supersedes Migrating — the install that completes a
// split carries the same generation as the fence that started it.
type Claim struct {
	// Gen is the slot's ownership generation, bumped by each split.
	Gen uint32
	// Phase is the claim's lifecycle state.
	Phase Phase
	// Owner is the group that owns the slot (Owned) or is fencing it
	// away (Migrating).
	Owner types.GroupID
	// To is the migration target; meaningful only while Migrating.
	To types.GroupID
}

// supersedes reports whether c should replace old under the monotone
// merge order.
func (c Claim) supersedes(old Claim) bool {
	if c.Gen != old.Gen {
		return c.Gen > old.Gen
	}
	return c.Phase == Owned && old.Phase == Migrating
}

// Table is an immutable snapshot of the routing table: one claim per
// slot plus a version counter bumped on every visible change. Readers
// share Table pointers freely; all mutation goes through Clone or the
// Holder.
type Table struct {
	// Version counts visible table changes on this host, for
	// observability and client refresh; it is host-local, not
	// replicated (the replicated truth is the per-slot claims).
	Version uint64
	// Slots holds one claim per hash slot.
	Slots []Claim
	// owners is a dense slot→owner index rebuilt whenever a finished
	// table is published (Legacy, Merge, DecodeTable). It keeps the
	// per-request lookup on a 4-byte stride instead of loading 16-byte
	// claims, which is what holds Group within the routing budget of
	// the fixed hash-mod-G router it replaced. Tables under
	// construction (Clone) leave it nil and Group falls back to Slots.
	owners []types.GroupID
}

// reindex rebuilds the dense owner index from Slots. Call it exactly
// when a table stops mutating and starts being shared.
func (t *Table) reindex() *Table {
	o := make([]types.GroupID, len(t.Slots))
	for i := range t.Slots {
		o[i] = t.Slots[i].Owner
	}
	t.owners = o
	return t
}

// Legacy builds the initial table for a cluster of g groups: g·256
// slots with slot s owned by group s mod g at generation zero. Key
// placement under this table is bit-identical to the legacy
// hash-mod-g router.
func Legacy(g int) *Table {
	if g <= 0 {
		g = 1
	}
	t := &Table{Version: 1, Slots: make([]Claim, g*SlotsPerGroup)}
	for s := range t.Slots {
		t.Slots[s] = Claim{Owner: types.GroupID(s % g)}
	}
	return t.reindex()
}

// NumSlots returns the table's slot count. It is fixed for the life of
// the cluster: splits reassign slots, they never change the slot
// space.
func (t *Table) NumSlots() int { return len(t.Slots) }

// SlotOf maps a key to its hash slot.
func (t *Table) SlotOf(key string) int {
	return int(shard.Hash(key) % uint32(len(t.Slots)))
}

// Group returns the group responsible for key: the slot's owner, even
// mid-migration (the owner redirects fenced writes itself, which keeps
// routing and fencing agreement a per-group log property rather than a
// cross-host race).
func (t *Table) Group(key string) types.GroupID {
	if o := t.owners; len(o) != 0 {
		return o[shard.Hash(key)%uint32(len(o))]
	}
	return t.Slots[shard.Hash(key)%uint32(len(t.Slots))].Owner
}

// Groups returns the number of groups the table routes to: one past
// the highest group named by any claim. Hosted capacity (the -groups
// flag) must be at least this.
func (t *Table) Groups() int {
	max := types.GroupID(0)
	for _, c := range t.Slots {
		if c.Owner > max {
			max = c.Owner
		}
		if c.Phase == Migrating && c.To > max {
			max = c.To
		}
	}
	return int(max) + 1
}

// OwnedSlots returns the slots currently claimed by group g (including
// slots it is fencing away), in ascending order.
func (t *Table) OwnedSlots(g types.GroupID) []uint32 {
	var out []uint32
	for s, c := range t.Slots {
		if c.Owner == g {
			out = append(out, uint32(s))
		}
	}
	return out
}

// Migrations returns the in-flight migrations recorded in the table,
// keyed by slot.
func (t *Table) Migrations() map[uint32]Claim {
	var out map[uint32]Claim
	for s, c := range t.Slots {
		if c.Phase == Migrating {
			if out == nil {
				out = make(map[uint32]Claim)
			}
			out[uint32(s)] = c
		}
	}
	return out
}

// Clone returns a deep copy safe to mutate.
func (t *Table) Clone() *Table {
	nt := &Table{Version: t.Version, Slots: make([]Claim, len(t.Slots))}
	copy(nt.Slots, t.Slots)
	return nt
}

// Merge folds claims into a copy of t under the monotone order and
// returns (copy, true) if anything changed, or (t, false) if every
// claim was stale. The merge is order-independent: applying the same
// claim set in any order yields the same table.
func (t *Table) Merge(claims map[uint32]Claim) (*Table, bool) {
	var nt *Table
	for s, c := range claims {
		if int(s) >= len(t.Slots) {
			continue
		}
		cur := t.Slots[s]
		if nt != nil {
			cur = nt.Slots[s]
		}
		if !c.supersedes(cur) {
			continue
		}
		if nt == nil {
			nt = t.Clone()
			nt.Version++
		}
		nt.Slots[s] = c
	}
	if nt == nil {
		return t, false
	}
	return nt.reindex(), true
}

// PlanSplit selects the slots a split of src toward dst would move:
// the upper half of src's owned slots (rounded down, so src keeps the
// larger share when odd). It returns the slots and the generation the
// split's fence and install claims must carry — one past the highest
// generation among the moving slots.
func (t *Table) PlanSplit(src, dst types.GroupID) (slots []uint32, gen uint32, err error) {
	if src == dst {
		return nil, 0, fmt.Errorf("reshard: split source and target are both %v", src)
	}
	owned := t.OwnedSlots(src)
	var stable []uint32
	for _, s := range owned {
		if t.Slots[s].Phase == Owned {
			stable = append(stable, s)
		}
	}
	if len(stable) < 2 {
		return nil, 0, fmt.Errorf("reshard: group %v has %d splittable slots, need at least 2", src, len(stable))
	}
	slots = stable[len(stable)/2+len(stable)%2:]
	for _, s := range slots {
		if g := t.Slots[s].Gen; g >= gen {
			gen = g + 1
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	return slots, gen, nil
}

// String renders a compact per-group summary: slot counts and any
// in-flight migrations.
func (t *Table) String() string {
	counts := make(map[types.GroupID]int)
	migrating := 0
	for _, c := range t.Slots {
		counts[c.Owner]++
		if c.Phase == Migrating {
			migrating++
		}
	}
	groups := make([]types.GroupID, 0, len(counts))
	for g := range counts {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	s := fmt.Sprintf("v%d slots=%d", t.Version, len(t.Slots))
	for _, g := range groups {
		s += fmt.Sprintf(" %v=%d", g, counts[g])
	}
	if migrating > 0 {
		s += fmt.Sprintf(" migrating=%d", migrating)
	}
	return s
}
