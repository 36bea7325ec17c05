package node

import (
	"context"
	"errors"
	"fmt"

	"clockrsm/internal/reshard"
	"clockrsm/internal/rsm"
	"clockrsm/internal/types"
)

// HostStatus is a point-in-time snapshot of every replication group
// hosted by a node.
type HostStatus struct {
	ID     types.ReplicaID
	Groups []GroupStatus
	// RouteVersion is the routing table's change counter at this host,
	// RouteGroups how many groups the table actively routes to (hosted
	// groups beyond it are spares), and RouteMigrating how many slots
	// are mid-migration.
	RouteVersion   uint64
	RouteGroups    int
	RouteMigrating int
	// Faults holds this replica's injected-fault counters, keyed
	// "layer.kind" (e.g. "clock.freeze", "link.drop"), when the host was
	// wired with HostOptions.FaultStats; nil otherwise.
	Faults map[string]uint64
}

// Status snapshots every group's control-plane state plus the routing
// table. It never blocks on any group's event loop.
func (h *Host) Status() HostStatus {
	st := HostStatus{ID: h.id}
	t := h.holder.Load()
	st.RouteVersion = t.Version
	st.RouteGroups = t.Groups()
	owned := make([]int, len(h.nodes))
	fencing := make([]int, len(h.nodes))
	for _, c := range t.Slots {
		if int(c.Owner) < len(owned) {
			owned[c.Owner]++
			if c.Phase == reshard.Migrating {
				fencing[c.Owner]++
			}
		}
		if c.Phase == reshard.Migrating {
			st.RouteMigrating++
		}
	}
	for i, n := range h.nodes {
		gs := n.status()
		gs.Slots = owned[i]
		gs.MigratingOut = fencing[i]
		st.Groups = append(st.Groups, gs)
	}
	if h.faultStats != nil {
		st.Faults = h.faultStats()
	}
	return st
}

// ReconfigureAll drives every hosted group to the given configuration,
// all-or-nothing: either every group ends up with exactly this member
// set, or an error reports which groups could not be moved (and the
// operator retries — the call is idempotent, and groups already at the
// target succeed immediately).
//
// Groups reconfigure independently (each is its own consensus domain),
// so atomicity is achieved by per-group epoch barriers: for each group
// the call proposes the target at the group's next epoch, waits for
// that epoch's decision to install, and — if a competing proposal (the
// failure detector, another operator) won the epoch — re-proposes at
// the new epoch until the group lands on the target or ctx expires. No
// group is left between epochs when the call returns successfully.
//
// The member set is validated once, up front, and every group's
// protocol must support reconfiguration before any group is touched, so
// a malformed request changes nothing.
func (h *Host) ReconfigureAll(ctx context.Context, members []types.ReplicaID) error {
	if _, err := h.nodes[0].canonicalMembers(members); err != nil {
		return err
	}
	for _, n := range h.nodes {
		if _, ok := n.proto.(rsm.Reconfigurable); !ok {
			return fmt.Errorf("host %v: group %v: %w", h.id, n.group, ErrNotReconfigurable)
		}
	}
	futs := make([]*Future, len(h.nodes))
	errs := make([]error, len(h.nodes))
	for i, n := range h.nodes {
		futs[i], errs[i] = n.Reconfigure(ctx, members)
	}
	// Every group's proposal is in flight; wait out each barrier. A
	// group whose epoch a competing proposal won (ErrConfigConflict)
	// re-proposes at the new epoch.
	for i, n := range h.nodes {
		for futs[i] != nil {
			_, errs[i] = futs[i].Wait(ctx)
			futs[i] = nil
			if errors.Is(errs[i], ErrConfigConflict) {
				if ctx.Err() != nil {
					errs[i] = ErrCanceled
					break
				}
				futs[i], errs[i] = n.Reconfigure(ctx, members)
			}
		}
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("group %v: %w", h.nodes[i].group, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("host %v: reconfiguration incomplete (%d of %d groups): %w",
			h.id, len(failed), len(h.nodes), errors.Join(failed...))
	}
	return nil
}
