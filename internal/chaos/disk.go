package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/storage"
	"clockrsm/internal/types"
)

// ErrInjected marks every storage error produced by fault injection, so
// tests (and recovery paths) can tell a scheduled fault from a real
// one with errors.Is.
var ErrInjected = errors.New("chaos: injected storage fault")

// Log wraps a stable log with this engine's disk-fault windows for
// replica r (one wrapper per group log; the windows apply to all of a
// replica's logs alike, modelling a sick device rather than a sick
// file). The wrapper implements Syncer, Checkpointer and StatsReporter
// unconditionally, degrading to no-ops when the wrapped log lacks the
// capability, so it can stand in anywhere a FileLog does.
//
// Read the fault-kind taxonomy in chaos.go before scheduling write
// errors: stalls (DiskSlowAppend, DiskFsyncStall) and
// DiskCheckpointError are safe under live protocol load; DiskAppendError
// and DiskSyncError deliberately violate contracts the replication core
// relies on and belong in targeted recovery tests only.
func (e *Engine) Log(r types.ReplicaID, inner storage.Log) *ChaosLog {
	l := &ChaosLog{eng: e, inner: inner}
	l.innerS, _ = inner.(storage.Syncer)
	l.innerC, _ = inner.(storage.Checkpointer)
	l.innerR, _ = inner.(storage.StatsReporter)
	for _, f := range e.sched.Disk {
		if f.Replica == r {
			l.faults = append(l.faults, f)
		}
	}
	e.register(r, l.addCounts)
	return l
}

// ChaosLog is the fault-injecting stable-log wrapper built by
// Engine.Log.
type ChaosLog struct {
	eng    *Engine
	inner  storage.Log
	innerS storage.Syncer
	innerC storage.Checkpointer
	innerR storage.StatsReporter
	faults []DiskFault

	mu          sync.Mutex
	slowAppends uint64
	fsyncStalls uint64
	cpErrors    uint64
	apErrors    uint64
	syErrors    uint64
}

var (
	_ storage.Log           = (*ChaosLog)(nil)
	_ storage.Syncer        = (*ChaosLog)(nil)
	_ storage.Checkpointer  = (*ChaosLog)(nil)
	_ storage.StatsReporter = (*ChaosLog)(nil)
)

// active returns the first active fault window of the given kind, if
// any.
func (l *ChaosLog) active(kind DiskFaultKind) (DiskFault, bool) {
	el, armed := l.eng.elapsed()
	if !armed {
		return DiskFault{}, false
	}
	for _, f := range l.faults {
		if f.Kind != kind || el < f.At {
			continue
		}
		if f.Duration > 0 && el >= f.At+f.Duration {
			continue
		}
		return f, true
	}
	return DiskFault{}, false
}

// Append implements storage.Log, stalling or failing per the schedule.
func (l *ChaosLog) Append(e storage.Entry) error {
	if f, ok := l.active(DiskSlowAppend); ok {
		l.count(&l.slowAppends)
		time.Sleep(f.Stall)
	}
	if _, ok := l.active(DiskAppendError); ok {
		l.count(&l.apErrors)
		return fmt.Errorf("%w: append", ErrInjected)
	}
	return l.inner.Append(e)
}

// Sync implements storage.Syncer, stalling or failing per the schedule.
// With a wrapped log that has no Syncer it is a no-op (after faults
// apply, so a pure MemLog setup still exercises stall windows).
func (l *ChaosLog) Sync() error {
	if f, ok := l.active(DiskFsyncStall); ok {
		l.count(&l.fsyncStalls)
		time.Sleep(f.Stall)
	}
	if _, ok := l.active(DiskSyncError); ok {
		l.count(&l.syErrors)
		return fmt.Errorf("%w: fsync", ErrInjected)
	}
	if l.innerS == nil {
		return nil
	}
	return l.innerS.Sync()
}

// WriteCheckpoint implements storage.Checkpointer, failing per the
// schedule (the protocol treats a failed checkpoint as "keep the
// uncompacted log").
func (l *ChaosLog) WriteCheckpoint(cp storage.Checkpoint) error {
	if _, ok := l.active(DiskCheckpointError); ok {
		l.count(&l.cpErrors)
		return fmt.Errorf("%w: checkpoint", ErrInjected)
	}
	if l.innerC == nil {
		return fmt.Errorf("chaos: wrapped log %T does not checkpoint", l.inner)
	}
	return l.innerC.WriteCheckpoint(cp)
}

// LastCheckpoint implements storage.Checkpointer.
func (l *ChaosLog) LastCheckpoint() (storage.Checkpoint, bool) {
	if l.innerC == nil {
		return storage.Checkpoint{}, false
	}
	return l.innerC.LastCheckpoint()
}

// Stats implements storage.StatsReporter.
func (l *ChaosLog) Stats() storage.LogStats {
	if l.innerR == nil {
		return storage.LogStats{}
	}
	return l.innerR.Stats()
}

// Mode implements storage.StatsReporter.
func (l *ChaosLog) Mode() storage.SyncMode {
	if l.innerR == nil {
		return storage.SyncOff
	}
	return l.innerR.Mode()
}

// The query and maintenance methods pass straight through: faults model
// a slow or lying write path, not a corrupted read path.

// Len implements storage.Log.
func (l *ChaosLog) Len() int { return l.inner.Len() }

// Entries implements storage.Log.
func (l *ChaosLog) Entries() []storage.Entry { return l.inner.Entries() }

// LastCommitTS implements storage.Log.
func (l *ChaosLog) LastCommitTS() types.Timestamp { return l.inner.LastCommitTS() }

// CommandsAfter implements storage.Log.
func (l *ChaosLog) CommandsAfter(ts types.Timestamp) []msg.TimestampedCommand {
	return l.inner.CommandsAfter(ts)
}

// CommandsBetween implements storage.Log.
func (l *ChaosLog) CommandsBetween(from, to types.Timestamp) []msg.TimestampedCommand {
	return l.inner.CommandsBetween(from, to)
}

// HasPrepare implements storage.Log.
func (l *ChaosLog) HasPrepare(ts types.Timestamp) bool { return l.inner.HasPrepare(ts) }

// RemovePrepares implements storage.Log.
func (l *ChaosLog) RemovePrepares(after types.Timestamp) error {
	return l.inner.RemovePrepares(after)
}

// Close implements storage.Log.
func (l *ChaosLog) Close() error { return l.inner.Close() }

func (l *ChaosLog) count(c *uint64) {
	l.mu.Lock()
	*c++
	l.mu.Unlock()
}

func (l *ChaosLog) addCounts(into map[string]uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	add(into, "disk.slow_append", l.slowAppends)
	add(into, "disk.fsync_stall", l.fsyncStalls)
	add(into, "disk.checkpoint_error", l.cpErrors)
	add(into, "disk.append_error", l.apErrors)
	add(into, "disk.sync_error", l.syErrors)
}
