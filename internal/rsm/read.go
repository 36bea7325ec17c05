package rsm

// StateReader is implemented by protocols that can serve reads from the
// locally executed stable prefix, without replicating the read through
// the log. Clock-RSM qualifies because commits happen strictly in
// timestamp order (the commit marks are prefix-closed): once every
// command with timestamp ≤ W has executed locally and no replica in the
// configuration can still send one, a read captured at any t ≤ W
// observes everything a client could have seen completed — the
// stable-timestamp technique GentleRain-style systems use for local
// reads, derived here from the same physical-clock stability rule that
// commits writes. Slot-based protocols (paxos, mencius) have no such
// watermark and fall back to replicating reads as commands.
//
// Like every Protocol method, StableTS must be invoked on the event
// loop; the listener likewise fires on the event loop.
type StateReader interface {
	// StableTS returns the executed watermark: the highest wall-clock
	// nanosecond W such that every command with timestamp wall ≤ W has
	// been executed locally, and no command with timestamp wall ≤ W can
	// commit after this call. The watermark is monotonically
	// non-decreasing in steady state, but a reconfiguration can regress
	// it transiently: it freezes at the commit frontier during
	// suspension (a state transfer may execute commands above it) and
	// restarts from the decision baseline at install, recovering as the
	// new configuration's members are heard from. Consumers must gate
	// on "W ≥ target", never on W alone moving forward.
	StableTS() int64
	// SetStableListener installs fn, invoked on the event loop at the
	// end of every turn in which the watermark may have advanced — the
	// timestamp-waiter hook the runtime uses to release reads parked
	// until the watermark covers their capture time. At most one
	// listener; it must be installed before Start.
	SetStableListener(fn func())
}

// StateQuerier is optionally implemented by state machines that can
// answer read-only queries directly from local state, bypassing the
// replicated Apply path. Query must not mutate state, and — unlike
// Apply, which the replication layer serializes — it must be safe to
// call concurrently with Apply: the runtime serves bounded-staleness
// reads from client goroutines without crossing the event loop.
type StateQuerier interface {
	// Query answers q against the current local state. The query
	// encoding is the state machine's own; for the kvstore it is the
	// same payload a replicated read command would carry, so the
	// runtime can fall back to Apply-through-the-log when either the
	// protocol or the state machine lacks local-read support.
	Query(q []byte) []byte
}
