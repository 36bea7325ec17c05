package reshard

import (
	"context"
	"fmt"
	"sort"

	"clockrsm/internal/types"
)

// Cluster is the slice of a host the coordinator drives a split
// through: the live table, a propose-and-wait-applied path into any
// hosted group's log, and a post-fence checkpoint of a source group
// filtered to the migrating slots.
type Cluster interface {
	// Table returns the host's current routing table.
	Table() *Table
	// Propose replicates payload in group g's log and waits until it
	// is committed and applied at this host.
	Propose(ctx context.Context, g types.GroupID, payload []byte) ([]byte, error)
	// SourceSnapshot captures group g's current pairs for the given
	// slots, serialized with g's apply loop.
	SourceSnapshot(g types.GroupID, slots []uint32) ([]Pair, error)
}

// Split phases, in order, as reported to OnPhase.
const (
	// PhaseFence replicates the fence in the source group's log; once
	// applied, the moving slots are frozen and every write to them is
	// redirected.
	PhaseFence = "fence"
	// PhaseCheckpoint snapshots the frozen slots at the source. The
	// fence makes any later snapshot equivalent, which is what lets a
	// crashed split simply re-checkpoint and roll forward.
	PhaseCheckpoint = "checkpoint"
	// PhaseInstall replicates the seed chunks in the target group's
	// log; applying the final chunk flips ownership.
	PhaseInstall = "install"
	// PhaseDone fires after the final install chunk is applied.
	PhaseDone = "done"
)

// DefaultChunkPairs bounds pairs per install chunk so one log entry
// stays well under transport frame limits.
const DefaultChunkPairs = 128

// SplitReport summarizes a completed split.
type SplitReport struct {
	// From and To are the source and target groups.
	From, To types.GroupID
	// Gen is the generation the moved slots now carry.
	Gen uint32
	// Slots is the number of slots moved.
	Slots int
	// Pairs is the number of key/value pairs seeded.
	Pairs int
	// Chunks is the number of install commands replicated.
	Chunks int
}

// Coordinator drives live splits. It holds no replicated state of its
// own: every durable step is a command in a group's log, so a
// coordinator that dies mid-split leaves the cluster in a state any
// other coordinator can roll forward from (Heal).
type Coordinator struct {
	// Cluster is the host the coordinator operates through.
	Cluster Cluster
	// OnPhase, when set, is called as each phase starts (and with
	// PhaseDone at the end). Returning an error aborts the split at
	// that point — the crash-injection hook RunSplitChurn uses to kill
	// a coordinator between checkpoint and flip.
	OnPhase func(phase string) error
}

func (c *Coordinator) phase(p string) error {
	if c.OnPhase != nil {
		if err := c.OnPhase(p); err != nil {
			return fmt.Errorf("reshard: split aborted at %s: %w", p, err)
		}
	}
	return nil
}

// Split moves the upper half of src's slots to dst: fence, checkpoint,
// seed, flip. On return with nil error the routing table at this host
// shows the moved slots Owned by dst.
func (c *Coordinator) Split(ctx context.Context, src, dst types.GroupID) (*SplitReport, error) {
	slots, gen, err := c.Cluster.Table().PlanSplit(src, dst)
	if err != nil {
		return nil, err
	}
	if err := c.phase(PhaseFence); err != nil {
		return nil, err
	}
	fence := EncodeFence(Fence{Gen: gen, From: src, To: dst, Slots: slots})
	if _, err := c.Cluster.Propose(ctx, src, fence); err != nil {
		return nil, fmt.Errorf("reshard: fence %v→%v: %w", src, dst, err)
	}
	return c.transfer(ctx, src, dst, gen, slots)
}

// transfer runs the checkpoint and install phases for an
// already-fenced slot set.
func (c *Coordinator) transfer(ctx context.Context, src, dst types.GroupID, gen uint32, slots []uint32) (*SplitReport, error) {
	if err := c.phase(PhaseCheckpoint); err != nil {
		return nil, err
	}
	pairs, err := c.Cluster.SourceSnapshot(src, slots)
	if err != nil {
		return nil, err
	}
	if err := c.phase(PhaseInstall); err != nil {
		return nil, err
	}
	rep := &SplitReport{From: src, To: dst, Gen: gen, Slots: len(slots), Pairs: len(pairs)}
	for start := 0; ; start += DefaultChunkPairs {
		end := start + DefaultChunkPairs
		final := end >= len(pairs)
		if final {
			end = len(pairs)
		}
		in := Install{Gen: gen, From: src, To: dst, Final: final, Slots: slots, Pairs: pairs[start:end]}
		if _, err := c.Cluster.Propose(ctx, dst, EncodeInstall(in)); err != nil {
			return nil, fmt.Errorf("reshard: install %v→%v chunk %d: %w", src, dst, rep.Chunks, err)
		}
		rep.Chunks++
		if final {
			break
		}
	}
	if err := c.phase(PhaseDone); err != nil {
		return nil, err
	}
	return rep, nil
}

// Heal rolls forward every migration the table still shows in flight —
// the recovery path after a coordinator died between fence and flip.
// The slots are already frozen, so re-checkpointing and re-installing
// is safe, and the target's generation check makes a duplicate install
// a no-op: however many coordinators race here, each slot converges to
// exactly one owner at one generation.
func (c *Coordinator) Heal(ctx context.Context) ([]*SplitReport, error) {
	type migKey struct {
		from, to types.GroupID
		gen      uint32
	}
	pending := make(map[migKey][]uint32)
	for slot, cl := range c.Cluster.Table().Migrations() {
		k := migKey{from: cl.Owner, to: cl.To, gen: cl.Gen}
		pending[k] = append(pending[k], slot)
	}
	keys := make([]migKey, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.gen < b.gen
	})
	var reps []*SplitReport
	for _, k := range keys {
		slots := pending[k]
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		rep, err := c.transfer(ctx, k.from, k.to, k.gen, slots)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}
