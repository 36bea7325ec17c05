// Package clockrsm is a from-scratch Go reproduction of "Clock-RSM:
// Low-Latency Inter-Datacenter State Machine Replication Using Loosely
// Synchronized Physical Clocks" (Du, Sciascia, Elnikety, Zwaenepoel,
// Pedone — DSN 2014).
//
// The repository contains:
//
//   - internal/core: the Clock-RSM replication protocol (Algorithm 1),
//     the CLOCKTIME extension (Algorithm 2), and the reconfiguration
//     and recovery protocols (Algorithm 3, Section V);
//   - internal/paxos, internal/mencius: the Multi-Paxos, Paxos-bcast and
//     Mencius-bcast baselines of Section IV;
//   - internal/sim: a deterministic discrete-event simulator that
//     replays the paper's EC2 latency matrix (Table III);
//   - internal/node, internal/transport: a real runtime (goroutine event
//     loops over in-process or TCP transports), including node.Host — a
//     multi-group engine running G independent Clock-RSM groups per
//     node over one shared, group-tagged transport;
//   - internal/shard: the key hash the routing table places keys by,
//     and per-group log naming;
//   - internal/reshard: the elastic resharding subsystem — the
//     versioned slot routing table that is the live source of
//     placement truth, and the split coordinator that moves slots
//     between groups under load;
//   - internal/analysis: the analytical latency model of Table II and
//     the numerical study of Figure 7 / Table IV;
//   - internal/rpc, client: the front door — the multiplexed binary RPC
//     protocol that is kvserver's only client protocol, and the public
//     client library that speaks it;
//   - internal/chaos: the deterministic fault-injection layer — clock
//     anomalies, asymmetric partitions and misbehaving disks driven by
//     seeded, replayable schedules;
//   - internal/runner: the experiment harness regenerating every table
//     and figure of Section VI.
//
// # Hot-path architecture
//
// The paper's headline claim — commit latency bounded by WAN round
// trips, not protocol overhead — holds only if the local
// PREPARE → PREPAREOK → commit path costs near-zero CPU and
// allocation. The messaging hot path is therefore built around four
// cooperating mechanisms:
//
//   - Encode-once broadcast: msg.EncodeTo serializes into pooled,
//     reusable buffers (zero steady-state allocation), and
//     rsm.Broadcast routes through transport.Broadcaster when
//     available, so an N-peer broadcast encodes one frame and shares
//     it (refcounted) across all peer outboxes instead of encoding N
//     times.
//   - Frame batching: msg.Batch packs several messages from one
//     sender into a single wire frame, preserving per-link FIFO
//     order; a Clock-RSM replica coalesces the PREPAREOKs (and other
//     broadcasts) it produces while draining one event-loop batch
//     into one such frame.
//   - Write coalescing: the TCP writeLoop drains its outbox in
//     batches through a bufio.Writer — one flush (typically one
//     syscall) covers a whole burst of frames, and it re-drains
//     (yielding once when several groups share the endpoint) before
//     flushing, so concurrent bursts from many groups to one peer
//     merge into a single cross-group flush (Transport.Counters
//     reports frames, flushes and multi-group flushes). The readLoop
//     reuses a grow-only buffer with capped retention, so
//     steady-state framing allocates nothing on either side.
//   - Pooled decode: the receive path decodes hot-path message types
//     (PREPARE, PREPAREOK, CLOCKTIME and Batch frames of them) into
//     recycled msg.Record arenas — zero allocations per frame,
//     asserted by testing.AllocsPerRun. Messages from
//     msg.DecodeRecycled are valid until msg.Recycle(top) runs (the
//     node event loop recycles after Deliver); components that retain
//     data copy it, and rare message types stay heap-allocated so
//     retaining them is always safe. Each message's layout is one
//     field list (its fields method) that a single walk both encodes
//     and decodes, and TestWireGolden pins every type's bytes.
//   - Cumulative acknowledgements: a PREPAREOK for (w, j) vouches for
//     every PREPARE of origin j up to w, so replication is one watermark
//     per (acker, origin) and PendingCmds one FIFO per origin; there is
//     no per-command ack state. The node event loop drains queued events
//     in batches bracketed by BeginBatch/EndBatch, so a burst of
//     deliveries triggers one commit cascade.
//   - One ordered way out: everything core.Replica emits — PREPARE,
//     PREPAREOK and CLOCKTIME broadcasts, the unicast CLOCKTIME that
//     answers an idle-read CLOCKREQ, SUSPENDOK and state-transfer
//     replies, the reconfiguration consensus — is appended to one
//     outbox queue and leaves at the end of the batch turn (at once
//     when no turn is open, and before an epoch install) behind the
//     turn's one covering fsync. A run of consecutive broadcasts is
//     still one encode-once msg.Batch; a unicast leaves in its queue
//     position. Both land on the same per-peer transport queue, so
//     queue order is link order: per-sender FIFO, which the
//     stable-order rule assumes and the Sent counters check, and
//     ack-after-fsync are each enforced in that one place.
//   - Batching: commands enter the stack through the asynchronous
//     client API — node.Propose returns a Future that resolves with the
//     command's execution result — and every proposal the event loop
//     drains in one batch turn shares that turn's coalesced PREPARE
//     broadcast (the paper's batching, Section VI-D), with no knob: the
//     deeper the queue, the wider the batch. A bounded in-flight window
//     (1024 proposals per group) applies backpressure: Propose blocks
//     instead of queueing unbounded work, and Stop resolves every
//     unresolved future with ErrStopped so shutdown never strands a
//     waiter.
//   - Group sharding: a node.Host runs G independent Clock-RSM groups,
//     each with its own event loop, log and commit cascade, over ONE
//     transport endpoint per node — every frame carries a 4-byte group
//     tag at the framing layer, so the message codec is untouched — and
//     the reshard routing table places each key (by shard.Hash) in its
//     group. Commands on different keys commit in parallel on
//     multi-core hardware while per-key operations keep a total order,
//     so the single-group throughput ceiling becomes a per-group
//     ceiling.
//
// The bench workloads lan3_put_mem (one group) and lan3_g4_mixed (four
// groups) measure the end-to-end effect (sh bench/run.sh, see
// bench/README.md); BENCH_*.json records the trajectory of PRs 1-10.
//
// # Operator API
//
// Membership change (Algorithm 3 RECONFIGURE) is exposed as a
// first-class control-plane surface rather than an internal recovery
// path. Protocols that support it implement rsm.Reconfigurable —
// Reconfigure proposes a member set, ConfigView reads the installed
// epoch/members, and a configuration listener reports every installed
// epoch plus the locally originated commands a reconfiguration
// discarded. The runtime builds on that hook:
//
//   - Each group's node.Node has Reconfigure(ctx, members) — a
//     membership change proposed through the same Future machinery as
//     data commands, resolving when the targeted epoch's decision
//     installs (ErrConfigConflict if a competing proposal won it).
//   - node.Host has ReconfigureAll(ctx, members), which drives every
//     hosted group to the new configuration with per-group epoch
//     barriers, retrying conflicted groups until all of them hold
//     exactly the requested member set, and Status(), a per-group
//     epoch/config/in-flight/latency snapshot (lock-free, off the data
//     hot path; commit latency is subsampled into a fixed ring).
//   - Typed errors make resubmission decisions safe: ErrNotInConfig
//     (replica outside the configuration; in-flight futures resolve
//     with it on the removal transition instead of parking) and
//     ErrReconfigured (command provably discarded by a
//     reconfiguration) both guarantee the command never executed.
//   - kvserver serves MEMBERS / EPOCH / STATUS / RECONF as admin lines
//     on the client port and kvctl has matching subcommands, so an
//     operator can grow and shrink a live cluster from the CLI;
//     runner.RunMembershipChurn asserts the whole story end to end
//     (3→5→3 under load, zero lost or duplicated commands).
//
// # Elastic resharding
//
// The key space is divided into a fixed set of hash slots
// (256 × the genesis group count; reshard.Legacy places slot s at
// group s mod G, bit-identical to shard.Hash(key) mod G, so adopting
// the table moves no key). A versioned routing table (reshard.Table)
// records one claim per slot — owner, generation, and Owned/Migrating
// phase — and replaces hash-mod-G as the source of placement truth.
// Claims merge monotonically (higher generation wins; at equal
// generation the ownership flip supersedes the fence), so replicas
// fold in routing news from logs, snapshots and disk in any order and
// converge to one outcome. Each host persists its table beside the WAL
// as a JSON file you can read with any JSON tool (<log>.routes; the
// FENCE/INSTALL bodies and the snapshot's route header are JSON too),
// which is also what legitimizes restarting with a grown -groups
// value: capacity beyond the table's active groups runs as warm spares
// for future splits.
//
// A live split (reshard.Coordinator, Host.Split) moves the upper half
// of a group's slots to a spare in four phases: a FENCE command
// replicated in the source group's log freezes the moving slots at one
// log position (every replica redirects later writes to those slots —
// the linearization barrier); a checkpoint of the frozen slots is
// snapshotted at the source; INSTALL chunks replicated in the target
// group's log seed the frozen pairs; the final chunk flips ownership.
// The coordinator holds no state of its own — every durable step lives
// in a group log — so a coordinator that dies mid-split leaves a table
// still showing Migrating claims, and any other coordinator's Heal
// rolls the transfer forward; per-(source, generation) seed records
// make duplicate installs no-ops, so racing healers converge to
// exactly one owner per slot. Writes route through Host.Execute, which
// retries through node.ErrWrongGroup redirects (surfaced on the RPC
// wire as rpc.StatusWrongGroup); reads refuse Migrating slots at serve
// time rather than risk a stale source copy. runner.RunSplitChurn
// drives the whole story over real TCP and file logs: a
// coordinator-crash-mid-split healed by two racing coordinators, then
// a clean split, under closed-loop load with per-key linearizability
// asserted across the boundary.
//
// # Read path
//
// Reads do not replicate. Clock-RSM commits strictly in timestamp
// order, so each replica derives an executed watermark — the highest
// timestamp below which everything has executed locally and nothing
// can commit anymore (rsm.StateReader, implemented by core.Replica
// from LatestTV, the pending head and the local clock; the same
// stability rule that commits writes). Host.ReadKey(ctx, key, query,
// level) serves read-only queries from local state against it
// (rsm.StateQuerier, bypassing Apply and OnReply) at three levels:
// node.Linearizable captures the local clock and parks on a
// timestamp-ordered waiter queue until the watermark covers it —
// correct with no clock-skew bound, because a write only completes
// once every configured clock passed its timestamp; node.Sequential
// serves the current watermark immediately, monotonic across replicas
// through a node.Session token; node.Stale serves from the caller's
// goroutine against a lock-free watermark cache, bounded by a maximum
// age (ErrTooStale beyond it). ReadKey routes each read through the
// routing table to the key's group, kvserver exposes GETL/GETS/GETA
// next to the replicated GET, and protocols without a watermark
// (paxos, mencius) fall back to replicating reads as commands. Reads
// at a removed replica fail with ErrNotInConfig, the same sweep
// contract as write futures. runner.TestReadPathLinearizability checks
// reads and writes interleaved for linearizability (PR 5's figures are
// in BENCH_5.json); the lan3_g4_mixed bench workload measures reads and
// writes together.
//
// # Front door
//
// The one client path is a length-prefixed, multiplexed binary RPC
// protocol (internal/rpc): every request carries an ID, many requests
// pipeline over one connection, and responses complete out of order —
// so one socket amortizes commit latency across a whole window instead
// of paying it per command. Frames reuse the replica wire's
// pooled-buffer encode and borrow-from-input decode discipline.
// kvserver serves it on -client and reaches the host only through
// Host.Execute (writes, replicated reads), Host.ReadKey (tiered reads)
// and its admin handler (operator lines); the public client package
// wraps it with a bounded in-flight window, replica failover,
// automatic resubmission of provably-unexecuted commands
// (ErrNotInConfig/ErrReconfigured — reads also resubmit on connection
// loss, writes fail with client.ErrConnLost rather than risk a
// duplicate), and session-sticky sequential reads whose monotonic
// token survives failover. The server side admits work against
// per-connection and global in-flight budgets and sheds overload
// immediately with a typed wire error (rpc.ErrOverloaded) instead of
// queueing without bound; STATUS reports conns/inflight/accepted/shed.
// Every bench workload drives this path (client, internal/rpc,
// node.Host); lan3_put_mem is the one it dominates. BENCH_8.json
// records PR 8's comparison against the line protocol it replaced.
//
// # Fault injection
//
// Clock-RSM's correctness never depends on clock synchrony — only its
// latency does — and internal/chaos exists to prove that, not assume
// it. The chaos engine wraps the three substrates the runtime already
// abstracts behind interfaces, so faults inject at exactly the seams a
// real deployment fails at, with zero changes to protocol code: raw
// clock sources (per-replica jump/freeze/rollback/drift, applied
// underneath the deployment's clock.Monotonic guard — where an NTP
// step or a VM migration actually lands), transports (asymmetric
// one-way drops, flapping links, per-link delay spikes with FIFO order
// preserved), and stable logs (slow appends, fsync stalls, transient
// write errors). Every fault comes from a Schedule — a declarative,
// seeded fault-window list, plain JSON on disk (chaos.Random,
// chaos.DecodeSchedule) — so a failing run replays from its schedule
// file. Link delays and the hub's WAN latency share one FIFO delay line
// (transport.DelayLine). Injection counters flow from chaos.Engine through
// node.HostStatus.Faults into kvserver's STATUS line, and
// runner.RunChaosMatrix sweeps ten scenarios against a live
// multi-group cluster under closed-loop load, asserting per-key
// linearizability, zero lost acks, zero duplicate executions and
// bounded post-fault recovery.
//
// Bringing the matrix up found two real protocol bugs. First, the
// stability rule omitted the replica's own clock, so a clock rollback
// at the origin could execute a later-timestamped entry before an
// earlier one. Second, the transport is best-effort and PREPAREs are
// never retransmitted, so a one-way drop window outliving a
// reconfiguration install silently ate PREPAREs forever; the fix makes
// every hot message carry a cumulative sent-counter, the receiver
// proves gaps from it (GroupStatus.LinkGaps — non-zero under a healthy
// network means the transport is silently dropping traffic), and a
// proven gap forces a self-repair rejoin. The matrix fails without
// either fix. kvserver can arm the engine in test deployments with
// -chaos-seed / -chaos-schedule; see README.md "Chaos testing".
//
// See README.md for a guided tour, and bench/README.md with
// ROADMAP.md's Performance section for the measured results.
// cmd/rsmbench regenerates the paper's tables and figures:
//
//	go run ./cmd/rsmbench -exp all
package clockrsm
