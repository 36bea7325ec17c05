package main

import (
	"fmt"
	"sort"
	"time"

	"clockrsm/internal/types"
)

// Fault schedule of lan3_crash. Each cycle kills the last replica,
// restarts it downFor later over the logs it left, and waits for it to
// be readmitted. The survivors redial a dead peer once a second from
// the moment they lose it, so a replica restarted 1.5 s after the crash
// hears from them at 2 s and is readmitted shortly after; cycleLen
// leaves that, and the pause before the next crash, room. Nine cycles
// fit the driver's window (runSeconds).
const (
	faultLeadIn = time.Second
	cycleLen    = 2500 * time.Millisecond
	downFor     = 1500 * time.Millisecond
	rejoinLimit = 10 * time.Second
)

// cycle is what one kill/restart round observed.
type cycle struct {
	crashAt, restartAt, rejoinedAt time.Time
	lostEntries                    int
}

type faultReport struct {
	cycles       []cycle
	snapRestores uint64
	err          error
}

// faultCycles is how many whole cycles fit a window of length d.
//
// The failure detector samples on a fixed period (SuspectTimeout), so
// the time from a crash to its detection depends on where in that
// period the crash falls: anywhere from one period to two. Successive
// crashes are therefore staggered by period/cycles, sweeping the phase
// evenly; the median over the cycles then does not depend on the phase
// the run happened to start in.
func faultCycles(w *workload, d time.Duration) (n int, stride time.Duration) {
	for n = int((d - faultLeadIn) / cycleLen); n > 0; n-- {
		stride = w.suspect / time.Duration(n)
		if faultLeadIn+time.Duration(n)*cycleLen+time.Duration(n-1)*stride <= d {
			return n, stride
		}
	}
	return 0, 0
}

// victim is the replica the schedule kills: the last one, which serves
// no client.
func (c *cluster) victim() types.ReplicaID { return types.ReplicaID(c.w.replicas - 1) }

// runFaults executes the schedule against c inside the window starting
// at t0. It returns when the last restarted replica has rejoined.
func runFaults(c *cluster, t0 time.Time, d time.Duration) *faultReport {
	rep := &faultReport{}
	n, stride := faultCycles(c.w, d)
	victim := c.victim()
	ready := t0
	for k := 0; k < n; k++ {
		at := t0.Add(faultLeadIn + time.Duration(k)*(cycleLen+stride))
		// A late rejoin postpones the crash by whole detector periods,
		// which keeps its phase.
		for at.Before(ready) {
			at = at.Add(c.w.suspect)
		}
		time.Sleep(time.Until(at))
		c.kill(victim)
		cy := cycle{crashAt: time.Now()}

		time.Sleep(time.Until(cy.crashAt.Add(downFor)))
		// Readmission means the victim is in the configuration at an epoch
		// newer than any the survivors hold now: its replayed log alone
		// would still show the epoch it died in.
		base := make(map[types.GroupID]types.Epoch)
		for _, gs := range c.reps[0].host.Status().Groups {
			base[gs.Group] = gs.Epoch
		}
		cy.restartAt = time.Now()
		lost, err := c.restart(victim)
		if err != nil {
			rep.err = fmt.Errorf("cycle %d: restart: %w", k, err)
			return rep
		}
		cy.lostEntries = lost
		for {
			in := true
			for _, gs := range c.reps[victim].host.Status().Groups {
				if !gs.InConfig || gs.Epoch <= base[gs.Group] {
					in = false
				}
			}
			if in {
				break
			}
			if time.Since(cy.restartAt) > rejoinLimit {
				rep.err = fmt.Errorf("cycle %d: replica %v not readmitted within %v", k, victim, rejoinLimit)
				return rep
			}
			time.Sleep(2 * time.Millisecond)
		}
		cy.rejoinedAt = time.Now()
		for _, gs := range c.reps[victim].host.Status().Groups {
			rep.snapRestores += gs.SnapRestores
		}
		rep.cycles = append(rep.cycles, cy)
		// Let the survivors hear the readmitted replica before it dies
		// again.
		ready = cy.rejoinedAt.Add(300 * time.Millisecond)
	}
	return rep
}

// outages returns, per cycle, the time from the crash to the completion
// of the first request that was due after it.
func outages(cycles []cycle, ops []opRec) []time.Duration {
	sort.Slice(ops, func(i, j int) bool { return ops[i].due.Before(ops[j].due) })
	var out []time.Duration
	for _, cy := range cycles {
		i := sort.Search(len(ops), func(i int) bool { return !ops[i].due.Before(cy.crashAt) })
		if i < len(ops) {
			out = append(out, ops[i].end.Sub(cy.crashAt))
		}
	}
	return out
}
