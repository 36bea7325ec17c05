package main

import (
	"bytes"
	"fmt"
	"time"

	"clockrsm/internal/types"
)

// convergeLimit bounds the wait for the replicas to agree once the load
// has stopped.
const convergeLimit = 10 * time.Second

// snapshotHeader is the apply counter at the head of a kvstore
// snapshot; the sorted keys and values follow.
const snapshotHeader = 8

// checkState is the part of the correctness gate that runs after the
// load: every replica's store must hold identical contents, group by
// group (the bytes of its snapshot after the apply counter), and every
// key's converged value must be at least its last acknowledged write.
// The per-request checks (PUT replies, linearizable reads) ran inline;
// see loadgen.put and loadgen.getLin.
//
// The apply counters are compared too, but reported (skew: how many
// more commands the busiest replica of a group executed than the
// idlest, summed over groups), not gated: a replica that rejoins
// through Open item 1's link-gap storm now and then re-executes a few
// commands in place, which leaves the contents equal and the counter
// ahead. Like core.link_gaps, that is Open item 1's to zero.
func checkState(c *cluster, g *loadgen) (violations []string, skew uint64) {
	reps := c.live()
	if len(reps) != c.w.replicas {
		return []string{fmt.Sprintf("%d of %d replicas running at the end of the run", len(reps), c.w.replicas)}, 0
	}
	deadline := time.Now().Add(convergeLimit)
	for {
		diverged := ""
		skew = 0
		for grp := 0; grp < c.w.groups && diverged == ""; grp++ {
			ref := reps[0].stores[grp].Snapshot()
			lo, hi := reps[0].stores[grp].Applied(), reps[0].stores[grp].Applied()
			for _, r := range reps[1:] {
				if !bytes.Equal(ref[snapshotHeader:], r.stores[grp].Snapshot()[snapshotHeader:]) {
					diverged = fmt.Sprintf("group %d: replica %v (%d keys, %d applied) and replica %v (%d keys, %d applied) diverge",
						grp, reps[0].id, reps[0].stores[grp].Len(), reps[0].stores[grp].Applied(), r.id, r.stores[grp].Len(), r.stores[grp].Applied())
					break
				}
				lo, hi = min(lo, r.stores[grp].Applied()), max(hi, r.stores[grp].Applied())
			}
			skew += hi - lo
		}
		if diverged == "" {
			break
		}
		if time.Now().After(deadline) {
			return []string{"stores never converged: " + diverged}, 0
		}
		time.Sleep(5 * time.Millisecond)
	}

	table := reps[0].host.Table()
	for k, key := range g.keys {
		acked := g.lastAcked[k].Load()
		if acked == 0 {
			continue
		}
		var grp types.GroupID = table.Group(key)
		v, _ := reps[0].stores[grp].Lookup(key)
		if got := valueSeq(v); got < acked {
			violations = append(violations, fmt.Sprintf("key %s converged to seq %d, but seq %d was acknowledged (acknowledged write lost)", key, got, acked))
			if len(violations) == 8 {
				break
			}
		}
	}
	return violations, skew
}
