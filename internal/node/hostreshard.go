package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"clockrsm/internal/reshard"
	"clockrsm/internal/types"
)

// Table returns the host's current routing table (immutable snapshot).
func (h *Host) Table() *reshard.Table { return h.holder.Load() }

// Holder returns the host's table holder, for observability (persist
// errors) and tests.
func (h *Host) Holder() *reshard.Holder { return h.holder }

// retry pacing for Execute/ReadKey while a key's slot is mid-migration:
// start fine-grained (migration windows are short) and back off.
const (
	redirectBackoffMin = 500 * time.Microsecond
	redirectBackoffMax = 20 * time.Millisecond
)

// stableOwner blocks until key's slot has a stable (Owned) claim and
// returns its slot and owner. During a migration window it polls with
// backoff: the window closes when the install flips the claim, or ctx
// gives up (a stalled split is healed out-of-band, see Heal).
func (h *Host) stableOwner(ctx context.Context, key string) (slot int, owner types.GroupID, err error) {
	backoff := redirectBackoffMin
	for {
		t := h.holder.Load()
		slot = t.SlotOf(key)
		c := t.Slots[slot]
		if c.Phase == reshard.Owned {
			return slot, c.Owner, nil
		}
		if err := h.sched.sleep(ctx, backoff); err != nil {
			return 0, 0, &WrongGroupError{To: c.To}
		}
		if backoff *= 2; backoff > redirectBackoffMax {
			backoff = redirectBackoffMax
		}
	}
}

// Execute proposes payload on key's group and waits for its result,
// retrying through routing changes: if the key's slot is mid-migration
// it waits for the flip, and if the command lands on a fence
// (ErrWrongGroup) it re-routes against the refreshed table and
// resubmits. A fenced command was never executed, so the resubmission
// preserves at-most-once execution; ctx bounds the total wait. This is
// the dispatch path the server front ends use.
func (h *Host) Execute(ctx context.Context, key string, payload []byte) (types.Result, error) {
	for {
		_, owner, err := h.stableOwner(ctx, key)
		if err != nil {
			return types.Result{}, err
		}
		fut, err := h.nodes[owner].propose(ctx, payload)
		if err != nil {
			return types.Result{}, err
		}
		res, err := fut.Wait(ctx)
		if err == nil || !errors.Is(err, ErrWrongGroup) {
			return res, err
		}
		// Fenced mid-flight: the table here may not have flipped yet;
		// loop — stableOwner waits out the window.
		if ctx.Err() != nil {
			return res, err
		}
	}
}

// ReadKey answers an opaque read-only query on the replication group
// responsible for key, at the requested consistency level. The read is
// gated against the routing table at serve time: if the key's slot
// migrated (or began migrating) between submit and serve, the read
// fails over to the new owner instead of serving state that may no
// longer be the latest — the write fence alone cannot protect a read
// served after ownership flipped elsewhere.
func (h *Host) ReadKey(ctx context.Context, key string, query []byte, lvl Level) (ReadResult, error) {
	for {
		slot, owner, err := h.stableOwner(ctx, key)
		if err != nil {
			return ReadResult{}, err
		}
		gate := func() error {
			c := h.holder.Load().Slots[slot]
			if c.Phase != reshard.Owned || c.Owner != owner {
				to := c.Owner
				if c.Phase == reshard.Migrating {
					to = c.To
				}
				return &WrongGroupError{To: to}
			}
			return nil
		}
		res, err := h.nodes[owner].read(ctx, query, lvl, gate)
		if err == nil || !errors.Is(err, ErrWrongGroup) {
			return res, err
		}
		if ctx.Err() != nil {
			return res, err
		}
	}
}

// splitCluster adapts the Host to the coordinator's Cluster interface.
type splitCluster struct{ h *Host }

func (c splitCluster) Table() *reshard.Table { return c.h.holder.Load() }

func (c splitCluster) Propose(ctx context.Context, g types.GroupID, payload []byte) ([]byte, error) {
	if int(g) >= len(c.h.nodes) {
		return nil, fmt.Errorf("host %v: no group %v (hosting %d)", c.h.id, g, len(c.h.nodes))
	}
	fut, err := c.h.nodes[g].propose(ctx, payload)
	if err != nil {
		return nil, err
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

func (c splitCluster) SourceSnapshot(g types.GroupID, slots []uint32) ([]reshard.Pair, error) {
	if int(g) >= len(c.h.nodes) || c.h.nodes[g].sm == nil {
		return nil, fmt.Errorf("host %v: group %v has no bound state machine", c.h.id, g)
	}
	var pairs []reshard.Pair
	var err error
	ran := false
	// Serialize the checkpoint with the group's apply loop, so the
	// snapshot sits at a well-defined log position (after the fence).
	c.h.nodes[g].Do(func() {
		ran = true
		pairs, err = c.h.nodes[g].sm.SnapshotSlots(slots)
	})
	if !ran {
		return nil, ErrStopped
	}
	return pairs, err
}

// Coordinator returns a split coordinator operating through this host.
// Callers may set OnPhase (crash injection in tests) before driving
// Split or Heal.
func (h *Host) Coordinator() *reshard.Coordinator {
	return &reshard.Coordinator{Cluster: splitCluster{h: h}}
}

// Split live-moves the upper half of group src's slots to group dst:
// fence in src's log, checkpoint the frozen slots, seed dst through
// its log, flip ownership on the final install. dst must be a hosted
// (spare or existing) group. See reshard.Coordinator.
func (h *Host) Split(ctx context.Context, src, dst types.GroupID) (*reshard.SplitReport, error) {
	if int(dst) >= len(h.nodes) || dst < 0 {
		return nil, fmt.Errorf("host %v: split target %v not hosted (capacity %d; restart with a larger -groups)", h.id, dst, len(h.nodes))
	}
	return h.Coordinator().Split(ctx, src, dst)
}

// Heal rolls forward any split left mid-flight by a crashed
// coordinator; see reshard.Coordinator.Heal.
func (h *Host) Heal(ctx context.Context) ([]*reshard.SplitReport, error) {
	return h.Coordinator().Heal(ctx)
}
