package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/clock"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/stats"
	"clockrsm/internal/storage"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// Request tags. The generator puts an 8-byte tag at the head of every
// value; the decorators read it back out of the kvstore payload inside
// msg.Prepare.Cmd and storage.Entry.Cmd, which is how a span recorded
// at the client finds its events inside the replicas.
//
//	bit 63      the request is traced (spans are recorded for it)
//	bits 48-62  client index; the client's replica is the origin
//	bits 0-47   per-client request counter
const (
	tagTraced   = uint64(1) << 63
	tagClientLo = 48
)

func makeTag(client int, counter uint64, traced bool) uint64 {
	t := uint64(client)<<tagClientLo | counter&(1<<tagClientLo-1)
	if traced {
		t |= tagTraced
	}
	return t
}

func tagClient(tag uint64) int { return int(tag &^ tagTraced >> tagClientLo) }

// tracedTag extracts the tag of a traced PUT from a kvstore payload
// (op | keyLen u16 | key | value).
func tracedTag(payload []byte) (uint64, bool) {
	if len(payload) < 3 || kvstore.Op(payload[0]) != kvstore.OpPut {
		return 0, false
	}
	off := 3 + int(binary.LittleEndian.Uint16(payload[1:3]))
	if len(payload) < off+8 {
		return 0, false
	}
	tag := binary.LittleEndian.Uint64(payload[off:])
	return tag, tag&tagTraced != 0
}

// span is one traced PUT. Times are nanoseconds since tracer.base; zero
// means the event was not seen. Fields are atomic because the client
// goroutine, the origin's event loop and the transports' delivery
// goroutines all write (different fields of) the same span.
type span struct {
	tag   uint64
	start int64 // client.Put call (open loop: due time)
	end   int64 // client.Put return

	prepares atomic.Int32 // origin Append(KindPrepare) calls; >1 means resubmitted
	// The fields below describe the latest attempt (see tracedLog.attempt).
	ts        types.Timestamp
	bcast     atomic.Int64 // origin hands the PREPARE to the transport
	syncStart atomic.Int64 // the origin Sync() covering the PREPARE append
	syncDur   atomic.Int64
	acks      atomic.Int32
	majority  atomic.Int64 // majority-completing PREPAREOK reaches the origin's handler
	apply0    atomic.Int64 // StateMachine.Apply at the origin
	apply1    atomic.Int64
}

const spanShards = 64

// tracer owns the spans and the per-layer counters of one traced run.
// Decorators built from it wrap the seams of every replica.
type tracer struct {
	base     time.Time
	replicas int
	majority int32
	// origins maps a client index to the replica it talks to.
	origins []types.ReplicaID

	shards [spanShards]struct {
		mu    sync.Mutex
		byTag map[uint64]*span
		byTS  map[types.Timestamp]*span
	}

	// Counters, zeroed by reset at the start of the measured window.
	sendCalls, sendMsgs, sendNs   atomic.Int64
	sizedCalls, sizedBytes        atomic.Int64
	appends, appendNs             atomic.Int64
	syncs, syncedAppends          atomic.Int64
	applies, applyNs, clockCalls  atomic.Int64
	mu                            sync.Mutex
	spans                         []*span
	syncDurs, oneway, onewayExtra stats.Sample
	logs                          []*tracedLog
}

// sizeEvery is how often an outbound message is encoded to learn its
// size: often enough for a steady mean, rare enough to stay cheap.
const sizeEvery = 16

func newTracer(replicas int, origins []types.ReplicaID) *tracer {
	t := &tracer{base: time.Now(), replicas: replicas, majority: int32(types.Majority(replicas)), origins: origins}
	for i := range t.shards {
		t.shards[i].byTag = make(map[uint64]*span)
		t.shards[i].byTS = make(map[types.Timestamp]*span)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reset zeroes the counters and samples; called when the measured
// window opens so warm-up traffic is not counted.
func (t *tracer) reset() {
	for _, c := range []*atomic.Int64{&t.sendCalls, &t.sendMsgs, &t.sendNs, &t.sizedCalls, &t.sizedBytes,
		&t.appends, &t.appendNs, &t.syncs, &t.syncedAppends, &t.applies, &t.applyNs, &t.clockCalls} {
		c.Store(0)
	}
	t.mu.Lock()
	t.spans, t.syncDurs, t.oneway, t.onewayExtra = nil, stats.Sample{}, stats.Sample{}, stats.Sample{}
	for _, l := range t.logs {
		l.busyNs.Store(0)
	}
	t.mu.Unlock()
}

// begin opens a span for a traced request about to be sent.
func (t *tracer) begin(tag uint64, start int64) *span {
	sp := &span{tag: tag, start: start}
	sh := &t.shards[tag%spanShards]
	sh.mu.Lock()
	sh.byTag[tag] = sp
	sh.mu.Unlock()
	return sp
}

// finish closes a span once its reply arrived.
func (t *tracer) finish(sp *span, end int64) {
	sp.end = end
	sh := &t.shards[sp.tag%spanShards]
	sh.mu.Lock()
	delete(sh.byTag, sp.tag)
	sh.mu.Unlock()
	if sp.prepares.Load() > 0 {
		t.dropTS(sp.ts)
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) dropTS(ts types.Timestamp) {
	sh := &t.shards[uint64(ts.Wall)%spanShards]
	sh.mu.Lock()
	delete(sh.byTS, ts)
	sh.mu.Unlock()
}

func (t *tracer) byTag(tag uint64) *span {
	sh := &t.shards[tag%spanShards]
	sh.mu.Lock()
	sp := sh.byTag[tag]
	sh.mu.Unlock()
	return sp
}

func (t *tracer) byTS(ts types.Timestamp) *span {
	sh := &t.shards[uint64(ts.Wall)%spanShards]
	sh.mu.Lock()
	sp := sh.byTS[ts]
	sh.mu.Unlock()
	return sp
}

// originSpan returns the open span of a traced PUT payload if replica
// self is its origin.
func (t *tracer) originSpan(payload []byte, self types.ReplicaID) *span {
	tag, ok := tracedTag(payload)
	if !ok || tagClient(tag) >= len(t.origins) || t.origins[tagClient(tag)] != self {
		return nil
	}
	return t.byTag(tag)
}

// ---- storage seam ----

// tracedLog times a stable log from outside. It forwards the optional
// capabilities (Syncer, Checkpointer, StatsReporter) only through
// tracedFileLog, so a NullLog keeps presenting exactly the interface
// core.New probes for.
type tracedLog struct {
	storage.Log
	tr   *tracer
	self types.ReplicaID
	// unsynced are the origin's traced PREPAREs appended since the last
	// Sync, dirty the appends of any kind; both owned by the group's
	// event loop.
	unsynced []*span
	dirty    int64
	busyNs   atomic.Int64 // time inside Sync, for the busy share
}

func (t *tracer) plainLog(self types.ReplicaID, inner storage.Log) *tracedLog {
	l := &tracedLog{Log: inner, tr: t, self: self}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

func (l *tracedLog) Append(e storage.Entry) error {
	t0 := l.tr.now()
	if e.Kind == storage.KindPrepare && e.Cmd.ID.Origin == l.self {
		if sp := l.tr.originSpan(e.Cmd.Payload, l.self); sp != nil {
			l.attempt(sp, e.TS)
		}
	}
	err := l.Log.Append(e)
	l.dirty++
	l.tr.appends.Add(1)
	l.tr.appendNs.Add(l.tr.now() - t0)
	return err
}

// attempt starts (or, after a reconfiguration discarded the previous
// PREPARE and the client resubmitted, restarts) the replication part of
// a span at timestamp ts. The stages describe the attempt that
// committed; what earlier attempts cost lands in ingress. Only the
// origin group's event loop calls this for a given span, and ts is
// written before the counter that publishes it.
func (l *tracedLog) attempt(sp *span, ts types.Timestamp) {
	if sp.prepares.Load() > 0 {
		if ts == sp.ts {
			// A reconfiguration re-logging the same PREPARE, not a new
			// attempt: the command keeps its timestamp and its events.
			sp.prepares.Add(1)
			return
		}
		l.tr.dropTS(sp.ts)
		sp.bcast.Store(0)
		sp.syncStart.Store(0)
		sp.acks.Store(0)
		sp.majority.Store(0)
	}
	sp.ts = ts
	sh := &l.tr.shards[uint64(ts.Wall)%spanShards]
	sh.mu.Lock()
	sh.byTS[ts] = sp
	sh.mu.Unlock()
	l.unsynced = append(l.unsynced, sp)
	sp.prepares.Add(1)
}

type fileLog interface {
	storage.Log
	storage.Syncer
	storage.Checkpointer
	storage.StatsReporter
}

// tracedFileLog adds the group-commit seam of a FileLog.
type tracedFileLog struct {
	*tracedLog
	inner fileLog
}

func (t *tracer) fileLog(self types.ReplicaID, inner fileLog) *tracedFileLog {
	return &tracedFileLog{tracedLog: t.plainLog(self, inner), inner: inner}
}

func (l *tracedFileLog) Sync() error {
	if l.dirty == 0 {
		return l.inner.Sync() // clean log: a no-op barrier, not an fsync
	}
	t0 := l.tr.now()
	err := l.inner.Sync()
	d := l.tr.now() - t0
	for i, sp := range l.unsynced {
		sp.syncStart.Store(t0)
		sp.syncDur.Store(d)
		l.unsynced[i] = nil
	}
	l.unsynced = l.unsynced[:0]
	l.tr.syncs.Add(1)
	l.tr.syncedAppends.Add(l.dirty)
	l.dirty = 0
	l.busyNs.Add(d)
	l.tr.mu.Lock()
	l.tr.syncDurs.Add(time.Duration(d))
	l.tr.mu.Unlock()
	return err
}

func (l *tracedFileLog) WriteCheckpoint(cp storage.Checkpoint) error {
	// The rewrite fsyncs everything buffered, so the log is clean after
	// and no later Sync covers what was appended before it.
	l.dirty = 0
	clear(l.unsynced)
	l.unsynced = l.unsynced[:0]
	return l.inner.WriteCheckpoint(cp)
}
func (l *tracedFileLog) LastCheckpoint() (storage.Checkpoint, bool) { return l.inner.LastCheckpoint() }
func (l *tracedFileLog) Stats() storage.LogStats                    { return l.inner.Stats() }
func (l *tracedFileLog) Mode() storage.SyncMode                     { return l.inner.Mode() }

// ---- state-machine seam ----

// tracedSM times Apply and forwards the store's other capabilities,
// which the resharding wrapper and the read path probe for.
type tracedSM struct {
	inner *kvstore.Store
	tr    *tracer
	self  types.ReplicaID
}

var (
	_ rsm.StateQuerier = (*tracedSM)(nil)
	_ rsm.Snapshotter  = (*tracedSM)(nil)
)

func (t *tracer) stateMachine(self types.ReplicaID, inner *kvstore.Store) *tracedSM {
	return &tracedSM{inner: inner, tr: t, self: self}
}

func (s *tracedSM) Apply(payload []byte) []byte {
	t0 := s.tr.now()
	out := s.inner.Apply(payload)
	t1 := s.tr.now()
	s.tr.applies.Add(1)
	s.tr.applyNs.Add(t1 - t0)
	if sp := s.tr.originSpan(payload, s.self); sp != nil {
		sp.apply0.Store(t0)
		sp.apply1.Store(t1)
	}
	return out
}
func (s *tracedSM) Query(q []byte) []byte                { return s.inner.Query(q) }
func (s *tracedSM) Snapshot() []byte                     { return s.inner.Snapshot() }
func (s *tracedSM) Restore(state []byte) error           { return s.inner.Restore(state) }
func (s *tracedSM) InstallPair(key string, value []byte) { s.inner.InstallPair(key, value) }

// ---- clock seam ----

type countingClock struct {
	inner clock.Clock
	calls *atomic.Int64
}

func (t *tracer) clock(inner clock.Clock) clock.Clock {
	return countingClock{inner: inner, calls: &t.clockCalls}
}

func (c countingClock) Now() int64 {
	c.calls.Add(1)
	return c.inner.Now()
}

// ---- transport seam ----

// endpoint is what both runtime transports (the hub endpoint and the
// TCP endpoint) implement and node.Host probes for.
type endpoint interface {
	transport.GroupTransport
	transport.Broadcaster
	transport.GroupBroadcaster
}

// tracedTransport times the send path and observes deliveries.
type tracedTransport struct {
	inner  endpoint
	tr     *tracer
	matrix *wan.Matrix // injected one-way delays; nil when none
}

var _ endpoint = (*tracedTransport)(nil)

func (t *tracer) transport(inner transport.Transport, matrix *wan.Matrix) *tracedTransport {
	// Both runtime transports are endpoints; anything else is a wiring
	// bug in this program.
	return &tracedTransport{inner: inner.(endpoint), tr: t, matrix: matrix}
}

func (t *tracedTransport) Self() types.ReplicaID { return t.inner.Self() }
func (t *tracedTransport) Groups() int           { return t.inner.Groups() }
func (t *tracedTransport) Start() error          { return t.inner.Start() }
func (t *tracedTransport) Close() error          { return t.inner.Close() }

func (t *tracedTransport) SetHandler(h transport.Handler) { t.inner.SetHandler(t.observed(h)) }
func (t *tracedTransport) SetGroupHandler(g types.GroupID, h transport.Handler) {
	t.inner.SetGroupHandler(g, t.observed(h))
}

func (t *tracedTransport) Send(to types.ReplicaID, m msg.Message) {
	t0 := t.outbound(m, 1)
	t.inner.Send(to, m)
	t.tr.sendNs.Add(t.tr.now() - t0)
}
func (t *tracedTransport) SendGroup(to types.ReplicaID, g types.GroupID, m msg.Message) {
	t0 := t.outbound(m, 1)
	t.inner.SendGroup(to, g, m)
	t.tr.sendNs.Add(t.tr.now() - t0)
}
func (t *tracedTransport) Broadcast(dst []types.ReplicaID, m msg.Message) {
	t0 := t.outbound(m, fanout(dst, t.Self()))
	t.inner.Broadcast(dst, m)
	t.tr.sendNs.Add(t.tr.now() - t0)
}
func (t *tracedTransport) BroadcastGroup(dst []types.ReplicaID, g types.GroupID, m msg.Message) {
	t0 := t.outbound(m, fanout(dst, t.Self()))
	t.inner.BroadcastGroup(dst, g, m)
	t.tr.sendNs.Add(t.tr.now() - t0)
}

func fanout(dst []types.ReplicaID, self types.ReplicaID) int {
	n := 0
	for _, to := range dst {
		if to != self {
			n++
		}
	}
	return n
}

// each visits m, or the messages packed inside it.
func each(m msg.Message, fn func(msg.Message)) {
	if b, ok := m.(*msg.Batch); ok {
		for _, sub := range b.Msgs {
			fn(sub)
		}
		return
	}
	fn(m)
}

// outbound accounts for one send of m to copies peers and stamps the
// broadcast time on the traced PREPAREs it carries. It returns the
// time the send began.
func (t *tracedTransport) outbound(m msg.Message, copies int) int64 {
	now := t.tr.now()
	t.tr.sendMsgs.Add(int64(copies))
	self := t.Self()
	each(m, func(sub msg.Message) {
		if p, ok := sub.(*msg.Prepare); ok && p.TS.Node == self {
			if sp := t.tr.originSpan(p.Cmd.Payload, self); sp != nil {
				sp.bcast.CompareAndSwap(0, now)
			}
		}
	})
	if t.tr.sendCalls.Add(1)%sizeEvery == 0 {
		buf := msg.GetBuf()
		buf.B = msg.EncodeTo(buf.B, m)
		t.tr.sizedCalls.Add(1)
		t.tr.sizedBytes.Add(int64(len(buf.B) * copies))
		msg.PutBuf(buf)
	}
	return now
}

// observed wraps a delivery handler. The message is only inspected,
// never retained: it may live in pooled decode storage.
func (t *tracedTransport) observed(h transport.Handler) transport.Handler {
	self := t.Self()
	return func(from types.ReplicaID, m msg.Message) {
		now := t.tr.now()
		each(m, func(sub msg.Message) {
			switch mm := sub.(type) {
			case *msg.Prepare:
				// One-way delay: the origin's send call to this handler.
				tag, ok := tracedTag(mm.Cmd.Payload)
				if !ok {
					return
				}
				sp := t.tr.byTag(tag)
				if sp == nil || sp.bcast.Load() == 0 {
					return
				}
				d := now - sp.bcast.Load()
				var injected int64
				if t.matrix != nil {
					injected = int64(t.matrix.OneWay(from, self))
				}
				t.tr.mu.Lock()
				t.tr.oneway.Add(time.Duration(d))
				t.tr.onewayExtra.Add(time.Duration(d - injected))
				t.tr.mu.Unlock()
			case *msg.PrepareOK:
				if mm.TS.Node != self {
					return
				}
				// The origin's own log append is the first of the majority.
				if sp := t.tr.byTS(mm.TS); sp != nil && sp.acks.Add(1) == t.tr.majority-1 {
					sp.majority.Store(now)
				}
			}
		})
		h(from, m)
	}
}

// seamMetrics fills in what the decorators measured over the window:
// the stage means and the counters, busy time and waits at the seams.
// completed and writes are the window's operations and PUTs, window its
// length in seconds. It returns the window's spans.
func (t *tracer) seamMetrics(L map[string]float64, completed, writes, window float64) []*span {
	t.mu.Lock()
	spans := t.spans
	syncDurs, oneway, extra := t.syncDurs, t.oneway, t.onewayExtra
	t.mu.Unlock()

	// Stage means over the complete spans. A span's six stages are cut
	// from one clock at five events, so their means sum to the mean
	// latency of the complete spans exactly; the residual against the
	// mean latency of every traced PUT is only what the incomplete spans
	// (a missing or out-of-order event) hide. trace.complete_share is
	// therefore the check that the trace closes: a misplaced seam event
	// makes spans incomplete, it does not show in the residual.
	var sum stages
	var complete, all, allTotal float64
	for _, sp := range spans {
		all++
		allTotal += float64(sp.end - sp.start)
		if st, ok := sp.cut(); ok {
			complete++
			for i, d := range st {
				sum[i] += d
			}
		}
	}
	L["trace.spans"] = complete
	if complete > 0 {
		L["trace.complete_share"] = complete / all
		L["stage.unattributed_us"] = allTotal / all / 1e3
		for i, name := range stageNames {
			L["stage."+name+"_us"] = float64(sum[i]) / complete / 1e3
			L["stage.unattributed_us"] -= L["stage."+name+"_us"]
		}
	}

	L["transport.msgs_per_op"] = float64(t.sendMsgs.Load()) / completed
	if n := t.sizedCalls.Load(); n > 0 {
		L["transport.bytes_per_op"] = float64(t.sizedBytes.Load()) / float64(n) * float64(t.sendCalls.Load()) / completed
	}
	L["transport.send_busy_ns_per_op"] = float64(t.sendNs.Load()) / completed
	L["transport.oneway_p50_us"], L["transport.oneway_p99_us"] = us(oneway.Quantile(0.50)), us(oneway.Quantile(0.99))
	L["transport.oneway_excess_p50_us"] = us(extra.Quantile(0.50))

	appends, syncs := float64(t.appends.Load()), float64(t.syncs.Load())
	L["storage.appends_per_op"] = appends / writes
	L["storage.syncs_per_op"] = syncs / writes
	if syncs > 0 {
		L["storage.appends_per_sync"] = float64(t.syncedAppends.Load()) / syncs
	}
	if appends > 0 {
		L["storage.append_ns"] = float64(t.appendNs.Load()) / appends
	}
	L["storage.sync_p50_us"], L["storage.sync_p99_us"] = us(syncDurs.Quantile(0.50)), us(syncDurs.Quantile(0.99))
	for _, l := range t.logs {
		L["storage.sync_busy_share"] = max(L["storage.sync_busy_share"], float64(l.busyNs.Load())/1e9/window)
	}
	L["storage.syncs_per_host_per_s"] = syncs / float64(t.replicas) / window
	if n := t.applies.Load(); n > 0 {
		L["kvstore.apply_ns"] = float64(t.applyNs.Load()) / float64(n)
	}
	L["clock.now_calls_per_op"] = float64(t.clockCalls.Load()) / completed
	return spans
}

// ---- stages ----

// stageNames are the six stages of a PUT, in the order they happen.
var stageNames = [...]string{"ingress", "sync", "replicate", "stable", "apply", "egress"}

// stages is one complete span cut into its stage durations (ns),
// indexed like stageNames. They are contiguous, so they sum to the
// client-observed latency.
type stages [len(stageNames)]int64

// cut splits a span; ok is false when an event is missing or out of
// order.
func (sp *span) cut() (st stages, ok bool) {
	bcast, maj, a0, a1 := sp.bcast.Load(), sp.majority.Load(), sp.apply0.Load(), sp.apply1.Load()
	if sp.prepares.Load() == 0 || bcast == 0 || maj == 0 || a0 == 0 || sp.end == 0 {
		return st, false
	}
	if !(sp.start <= bcast && bcast <= maj && maj <= a0 && a0 <= a1 && a1 <= sp.end) {
		return st, false
	}
	sync := sp.syncDur.Load()
	if s := sp.syncStart.Load(); s == 0 || s+sync > bcast {
		sync = 0 // no covering sync before the broadcast (NullLog)
	}
	return stages{bcast - sp.start - sync, sync, maj - bcast, a0 - maj, a1 - a0, sp.end - a1}, true
}

// traceSpan is one record of the trace file.
type traceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Tag     uint64 `json:"tag"`
}

// maxTraceRequests bounds the trace file; the stage medians use every
// span regardless.
const maxTraceRequests = 2000

// writeTrace writes the first complete spans as a flat list: one
// "request" span per PUT and its six stage children.
func writeTrace(path string, spans []*span) error {
	var out []traceSpan
	n := 0
	for _, sp := range spans {
		st, ok := sp.cut()
		if !ok {
			continue
		}
		if n++; n > maxTraceRequests {
			break
		}
		out = append(out, traceSpan{Name: "request", StartNs: sp.start, EndNs: sp.end, Tag: sp.tag})
		at := sp.start
		for i, d := range st {
			out = append(out, traceSpan{Name: stageNames[i], StartNs: at, EndNs: at + d, Parent: "request", Tag: sp.tag})
			at += d
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
