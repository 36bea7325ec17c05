package reshard

import (
	"encoding/binary"
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
	gen uint32
	to  types.GroupID
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
				s.redirect, s.hasRedirect = fi.to, true
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
			if fi, ok := s.fenced[sl]; ok && fi.gen >= f.Gen {
				continue
			}
			s.fenced[sl] = fenceInfo{gen: f.Gen, to: f.To}
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
		s.installPairs(in.Pairs)
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

// installPairs seeds one chunk into the inner machine. Re-seeding the
// same frozen pairs (after a coordinator retry) is an idempotent
// overwrite.
func (s *SM) installPairs(pairs []Pair) {
	for _, p := range pairs {
		s.inner.InstallPair(p.Key, p.Value)
	}
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
			pairs = append(pairs, Pair{Key: k, Value: v})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	return pairs, nil
}

// Query implements rsm.StateQuerier. Queries touch no wrapper state,
// so they stay safe to run concurrently with Apply — the read-path gate
// against migrated slots is enforced at serve time by the node, against
// the live table.
func (s *SM) Query(q []byte) []byte { return s.inner.Query(q) }

// Snapshot implements rsm.Snapshotter: it encodes the wrapper's routing
// state followed by the inner machine's snapshot. The route blob rides
// the existing checkpoint and state-transfer paths, so a rejoining
// replica receives fence state and table claims along with the data
// they protect.
func (s *SM) Snapshot() []byte {
	tbl := EncodeTable(s.holder.Load())
	inner := s.inner.Snapshot()
	fslots := make([]uint32, 0, len(s.fenced))
	for sl := range s.fenced {
		fslots = append(fslots, sl)
	}
	sort.Slice(fslots, func(i, j int) bool { return fslots[i] < fslots[j] })
	seeds := make([]uint64, 0, len(s.seeded))
	for k := range s.seeded {
		seeds = append(seeds, k)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	buf := make([]byte, 0, 12+len(tbl)+12*len(fslots)+8*len(seeds)+len(inner))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tbl)))
	buf = append(buf, tbl...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fslots)))
	for _, sl := range fslots {
		fi := s.fenced[sl]
		buf = binary.LittleEndian.AppendUint32(buf, sl)
		buf = binary.LittleEndian.AppendUint32(buf, fi.gen)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(fi.to))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seeds)))
	for _, k := range seeds {
		buf = binary.LittleEndian.AppendUint64(buf, k)
	}
	return append(buf, inner...)
}

// Restore implements rsm.Snapshotter, inverting Snapshot: it replaces
// the wrapper's route state, merges the carried table into the host's
// (monotone, so a stale snapshot cannot roll routing back), and
// restores the inner machine from the remainder.
func (s *SM) Restore(buf []byte) error {
	if len(buf) < 4 {
		return ErrBadTable
	}
	tl := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if int64(tl) > int64(len(buf)) {
		return ErrBadTable
	}
	tbl, err := DecodeTable(buf[:tl])
	if err != nil {
		return err
	}
	buf = buf[tl:]
	if len(buf) < 4 {
		return ErrBadTable
	}
	nf := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if int64(len(buf)) < 12*int64(nf)+4 {
		return ErrBadTable
	}
	fenced := make(map[uint32]fenceInfo, nf)
	for i := uint32(0); i < nf; i++ {
		rec := buf[12*i:]
		fenced[binary.LittleEndian.Uint32(rec)] = fenceInfo{
			gen: binary.LittleEndian.Uint32(rec[4:]),
			to:  types.GroupID(binary.LittleEndian.Uint32(rec[8:])),
		}
	}
	buf = buf[12*nf:]
	ns := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if int64(len(buf)) < 8*int64(ns) {
		return ErrBadTable
	}
	seeded := make(map[uint64]bool, ns)
	for i := uint32(0); i < ns; i++ {
		seeded[binary.LittleEndian.Uint64(buf[8*i:])] = true
	}
	buf = buf[8*ns:]
	if err := s.inner.Restore(buf); err != nil {
		return err
	}
	s.fenced = fenced
	s.seeded = seeded
	s.holder.MergeTable(tbl)
	return nil
}
