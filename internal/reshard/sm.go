package reshard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/rsm"
	"clockrsm/internal/shard"
	"clockrsm/internal/types"
)

// Store is what a replication group's state machine must provide to
// be hosted (node.Host.Bind): the deterministic Apply, the read path's
// Query, checkpointing's Snapshot/Restore, and InstallPair, through
// which a split seeds migrated pairs. kvstore.Store is the reference
// implementation.
type Store interface {
	rsm.StateMachine
	rsm.StateQuerier
	rsm.Snapshotter
	InstallPair(key string, value []byte)
}

var _ Store = (*kvstore.Store)(nil)

// fenceInfo is the source-side record of one fenced slot.
type fenceInfo struct {
	Gen uint32
	To  types.GroupID
}

// SM wraps a group's inner state machine with the resharding layer. It
// intercepts control commands (fence, install) and fences data
// commands whose slot has migrated away, turning them into typed
// redirects instead of applies. All fencing state is derived purely
// from the group's own log (plus snapshots of it), so every replica of
// the group makes identical fence decisions at identical log
// positions — the linearization barrier for a split is a position in
// the source group's total order.
type SM struct {
	group    types.GroupID
	inner    Store
	holder   *Holder
	numSlots int

	// fenced maps slot → migration record for slots this group has
	// fenced away. Entries are permanent: a straggler write routed here
	// by a stale table is redirected forever, never silently applied.
	fenced map[uint32]fenceInfo
	// seeded records completed installs at this group, keyed by
	// (from group, generation), so a re-proposed install (coordinator
	// crash, log replay) is a no-op rather than a second seeding.
	seeded map[uint64]bool

	redirect    types.GroupID
	hasRedirect bool
}

// Wrap builds the resharding wrapper for group g over inner, sharing
// the host's table holder.
func Wrap(g types.GroupID, inner Store, holder *Holder) *SM {
	return &SM{
		group:    g,
		inner:    inner,
		holder:   holder,
		numSlots: holder.Load().NumSlots(),
		fenced:   make(map[uint32]fenceInfo),
		seeded:   make(map[uint64]bool),
	}
}

// Fenced reports how many slots this group has fenced away.
func (s *SM) Fenced() int { return len(s.fenced) }

func seedKey(from types.GroupID, gen uint32) uint64 {
	return uint64(uint32(from))<<32 | uint64(gen)
}

// Apply executes one committed command. Control commands mutate
// routing state; data commands for fenced slots produce a redirect and
// leave the inner machine untouched; everything else forwards.
func (s *SM) Apply(payload []byte) []byte {
	s.hasRedirect = false
	if IsControl(payload) {
		return s.applyControl(payload)
	}
	if len(s.fenced) > 0 {
		if cmd, err := kvstore.Decode(payload); err == nil {
			slot := shard.Hash(cmd.Key) % uint32(s.numSlots)
			if fi, ok := s.fenced[slot]; ok {
				s.redirect, s.hasRedirect = fi.To, true
				return nil
			}
		}
	}
	return s.inner.Apply(payload)
}

func (s *SM) applyControl(payload []byte) []byte {
	switch payload[0] {
	case OpFence:
		f, err := DecodeFence(payload)
		if err != nil || f.From != s.group {
			return nil // deterministic no-op on every replica
		}
		claims := make(map[uint32]Claim, len(f.Slots))
		for _, sl := range f.Slots {
			if int(sl) >= s.numSlots {
				continue
			}
			if fi, ok := s.fenced[sl]; ok && fi.Gen >= f.Gen {
				continue
			}
			s.fenced[sl] = fenceInfo{Gen: f.Gen, To: f.To}
			claims[sl] = Claim{Gen: f.Gen, Phase: Migrating, Owner: f.From, To: f.To}
		}
		s.holder.Merge(claims)
		return []byte("FENCED")
	case OpInstall:
		in, err := DecodeInstall(payload)
		if err != nil || in.To != s.group {
			return nil
		}
		if s.seeded[seedKey(in.From, in.Gen)] {
			return []byte("DUP")
		}
		// Re-seeding the same frozen pairs (after a coordinator retry) is
		// an idempotent overwrite.
		for _, p := range in.Pairs {
			s.inner.InstallPair(string(p.Key), p.Value)
		}
		if in.Final {
			s.seeded[seedKey(in.From, in.Gen)] = true
			claims := make(map[uint32]Claim, len(in.Slots))
			for _, sl := range in.Slots {
				if int(sl) >= s.numSlots {
					continue
				}
				claims[sl] = Claim{Gen: in.Gen, Phase: Owned, Owner: in.To}
			}
			s.holder.Merge(claims)
		}
		return []byte("INSTALLED")
	}
	return nil
}

// TakeRedirect implements rsm.Redirector: it reports whether the last
// Apply fenced its command, and the group the command's key moved to.
func (s *SM) TakeRedirect() (types.GroupID, bool) {
	if !s.hasRedirect {
		return 0, false
	}
	s.hasRedirect = false
	return s.redirect, true
}

// SnapshotSlots captures the inner machine's pairs for the given
// slots, sorted by key. It is only meaningful after those slots are
// fenced (the coordinator's checkpoint step), when the data is frozen.
func (s *SM) SnapshotSlots(slots []uint32) ([]Pair, error) {
	m, err := kvstore.DecodeSnapshot(s.inner.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("reshard: group %v snapshot: %w", s.group, err)
	}
	want := make(map[uint32]bool, len(slots))
	for _, sl := range slots {
		want[sl] = true
	}
	var pairs []Pair
	for k, v := range m {
		if want[shard.Hash(k)%uint32(s.numSlots)] {
			pairs = append(pairs, Pair{Key: []byte(k), Value: v})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].Key, pairs[j].Key) < 0 })
	return pairs, nil
}

// Query implements rsm.StateQuerier. Queries touch no wrapper state,
// so they stay safe to run concurrently with Apply — the read-path gate
// against migrated slots is enforced at serve time by the node, against
// the live table.
func (s *SM) Query(q []byte) []byte { return s.inner.Query(q) }

// snapHeader is the wrapper's routing state as it leads a snapshot.
// encoding/json writes map keys sorted, so the header is deterministic.
type snapHeader struct {
	Table  *Table
	Fenced map[uint32]fenceInfo
	Seeded map[uint64]bool
}

// Snapshot implements rsm.Snapshotter: the wrapper's routing state as
// one line of JSON (json.Marshal never writes a raw newline), then the
// inner machine's snapshot as raw bytes. The route header rides the
// existing checkpoint and state-transfer paths, so a rejoining replica
// receives fence state and table claims along with the data they
// protect.
func (s *SM) Snapshot() []byte {
	hdr, _ := json.Marshal(snapHeader{Table: s.holder.Load(), Fenced: s.fenced, Seeded: s.seeded})
	return append(append(hdr, '\n'), s.inner.Snapshot()...)
}

// Restore implements rsm.Snapshotter, inverting Snapshot: it replaces
// the wrapper's route state, merges the carried table into the host's
// (monotone, so a stale snapshot cannot roll routing back), and
// restores the inner machine from the remainder.
func (s *SM) Restore(buf []byte) error {
	n := bytes.IndexByte(buf, '\n')
	if n < 0 {
		return ErrBadTable
	}
	var h snapHeader
	if err := strictJSON(buf[:n], &h); err != nil {
		return fmt.Errorf("%w: %v", ErrBadTable, err)
	}
	tbl, err := h.Table.checked()
	if err != nil {
		return err
	}
	if h.Fenced == nil || h.Seeded == nil {
		return ErrBadTable
	}
	if err := s.inner.Restore(buf[n+1:]); err != nil {
		return err
	}
	s.fenced = h.Fenced
	s.seeded = h.Seeded
	s.holder.MergeTable(tbl)
	return nil
}
