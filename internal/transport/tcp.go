package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// maxFrame bounds a single wire frame; larger frames indicate
// corruption and kill the connection. It mirrors msg.MaxFrame so the
// decoder and the framing layer enforce the same limit.
const maxFrame = msg.MaxFrame

// Writer coalescing limits: one flush covers at most maxWriteBatch
// queued frames or maxWriteBytes of payload, whichever is hit first.
const (
	maxWriteBatch = 128
	maxWriteBytes = 1 << 20
	wireBufSize   = 64 << 10
)

// Read-buffer retention: the per-connection frame buffer grows to fit
// the largest frame seen, but after readShrinkAfter consecutive frames
// that would have fit in readRetainBytes it shrinks back, so one burst
// of huge frames (a snapshot transfer, a giant batch) does not pin its
// high-water mark for the life of the connection.
const (
	readRetainBytes = wireBufSize
	readShrinkAfter = 256
)

// Queue capacities of a TCP endpoint.
const (
	// outboxLen is the per-peer send queue capacity; a full queue drops
	// messages, matching best-effort semantics.
	outboxLen = 4096
	// inboxLen is the per-group inbound queue capacity of a multi-group
	// endpoint. A full queue drops that group's messages — best-effort,
	// like the outbox — instead of letting one stalled group
	// head-of-line-block its siblings on the shared connection.
	inboxLen = 4096
)

// TCPOptions configure a TCP endpoint.
type TCPOptions struct {
	// DialRetry is the backoff between reconnect attempts (default 1s).
	DialRetry time.Duration
	// Groups is the number of replication groups multiplexed over this
	// endpoint (default 1). Every frame carries a 4-byte group tag; all
	// endpoints of one cluster must agree on Groups.
	Groups int
}

// hsMagicV2 opens every connection: the handshake is [hsMagicV2 |
// 4-byte sender], and a connection that does not start with it is
// rejected like one naming an unknown sender.
const hsMagicV2 = 0x43525347 // bytes "GSRC" on the wire (little-endian)

// TCPEndpoint is a Transport over TCP with length-prefixed frames.
// Each endpoint listens on its own address and lazily dials peers;
// every connection begins with a handshake naming the sender (see
// hsMagicV2), and every frame carries a 4-byte length, a 4-byte group
// tag and the encoded message.
//
// The send path is allocation-frugal: messages are encoded once into
// pooled buffers (msg.GetBuf), broadcasts share a single encoded frame
// across all peer outboxes via refcounting — including the group tag,
// which is framed once for the whole fan-out — and each writeLoop
// drains its outbox through a bufio.Writer so one syscall flushes a
// whole burst of frames.
type TCPEndpoint struct {
	self  types.ReplicaID
	addrs map[types.ReplicaID]string
	opts  TCPOptions
	// handlers[g] receives group g's messages; a plain SetHandler
	// installs handlers[0]. Written before Start, read by readLoops.
	handlers []Handler
	// inboxes[g] decouples group g's deliveries from the shared
	// readLoops on a multi-group endpoint: each group drains its own queue
	// on its own goroutine, so a group whose handler stalls (e.g. a
	// slow fsync backing up its event loop) drops its own overflow
	// instead of blocking sibling groups' traffic on the connection. A
	// single-group endpoint delivers synchronously — the readLoop's
	// blocking IS the desired TCP backpressure there.
	inboxes []chan inDelivery
	// inDrops counts inbound messages dropped on full group queues.
	inDrops   atomic.Uint64
	peerDown  func(types.ReplicaID) // the PeerWatcher callback
	peerDowns atomic.Uint64

	ln net.Listener

	mu    sync.Mutex
	peers map[types.ReplicaID]*tcpPeer
	conns map[net.Conn]struct{}
	quit  chan struct{}
	wg    sync.WaitGroup

	closed bool

	// Wire-level counters (atomic): frames handed to the kernel and
	// flushes (≈ syscalls) performed. framesSent/flushes is the write
	// coalescing factor. coalescedFrames counts frames that shared a
	// flush with at least one other frame; multiGroupFlushes counts
	// flushes whose batch mixed frames from two or more groups — direct
	// evidence that concurrent groups' bursts merged on the shared
	// connection.
	framesSent        atomic.Uint64
	flushes           atomic.Uint64
	coalescedFrames   atomic.Uint64
	multiGroupFlushes atomic.Uint64
}

var (
	_ Transport        = (*TCPEndpoint)(nil)
	_ Broadcaster      = (*TCPEndpoint)(nil)
	_ GroupTransport   = (*TCPEndpoint)(nil)
	_ GroupBroadcaster = (*TCPEndpoint)(nil)
	_ PeerWatcher      = (*TCPEndpoint)(nil)
)

// tcpPeer is an outgoing connection with its queue and writer.
type tcpPeer struct {
	outbox chan *outFrame
}

// inDelivery is one inbound message queued for a group's delivery
// goroutine.
type inDelivery struct {
	from types.ReplicaID
	m    msg.Message
}

// outFrame is one encoded, length-prefixed wire frame. A broadcast
// enqueues the same frame on every peer outbox; refs counts outstanding
// holders so the backing pooled buffer is released exactly once.
type outFrame struct {
	data  []byte   // [4-byte length | group tag | encoded message]; read-only once enqueued
	buf   *msg.Buf // pooled backing storage of data
	group types.GroupID
	refs  atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(outFrame) }}

// newFrame encodes m into a pooled buffer as a length-prefixed frame
// with refs initial holders. The body opens with the 4-byte group tag,
// so the tag is serialized once per fan-out along with the message
// itself.
func newFrame(m msg.Message, refs int32, g types.GroupID) *outFrame {
	f := framePool.Get().(*outFrame)
	f.buf = msg.GetBuf()
	b := append(f.buf.B[:0], 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(g))
	b = msg.EncodeTo(b, m)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	f.buf.B = b
	f.data = b
	f.group = g
	f.refs.Store(refs)
	return f
}

// release drops one hold on f, recycling its storage on the last drop.
func (f *outFrame) release() {
	if f.refs.Add(-1) != 0 {
		return
	}
	msg.PutBuf(f.buf)
	f.buf = nil
	f.data = nil
	framePool.Put(f)
}

// NewTCP creates a TCP endpoint for replica self; addrs maps every
// replica (including self) to its listen address.
func NewTCP(self types.ReplicaID, addrs map[types.ReplicaID]string, opts TCPOptions) *TCPEndpoint {
	if opts.DialRetry <= 0 {
		opts.DialRetry = time.Second
	}
	if opts.Groups <= 0 {
		opts.Groups = 1
	}
	if opts.Groups > MaxGroups {
		opts.Groups = MaxGroups
	}
	t := &TCPEndpoint{
		self:     self,
		addrs:    addrs,
		opts:     opts,
		handlers: make([]Handler, opts.Groups),
		peers:    make(map[types.ReplicaID]*tcpPeer),
		conns:    make(map[net.Conn]struct{}),
		quit:     make(chan struct{}),
		peerDown: func(types.ReplicaID) {},
	}
	if opts.Groups > 1 {
		t.inboxes = make([]chan inDelivery, opts.Groups)
		for g := range t.inboxes {
			t.inboxes[g] = make(chan inDelivery, inboxLen)
		}
	}
	return t
}

// Self implements Transport.
func (t *TCPEndpoint) Self() types.ReplicaID { return t.self }

// SetHandler implements Transport: it installs group 0's handler.
func (t *TCPEndpoint) SetHandler(h Handler) { t.handlers[0] = h }

// Groups implements GroupTransport.
func (t *TCPEndpoint) Groups() int { return t.opts.Groups }

// SetGroupHandler implements GroupTransport. It must be called before
// Start; g must name a configured group.
func (t *TCPEndpoint) SetGroupHandler(g types.GroupID, h Handler) {
	if g < 0 || int(g) >= len(t.handlers) {
		panic(fmt.Sprintf("tcp endpoint %v: handler for unconfigured group %v (groups=%d)", t.self, g, len(t.handlers)))
	}
	t.handlers[g] = h
}

// Addr returns the bound listen address (useful with ":0" test
// listeners). Valid after Start.
func (t *TCPEndpoint) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// WireCounters is a snapshot of an endpoint's wire-level counters.
type WireCounters struct {
	// Frames handed to the kernel.
	Frames uint64
	// Flushes performed (≈ syscalls); Frames/Flushes is the achieved
	// write-coalescing factor.
	Flushes uint64
	// CoalescedFrames counts frames that shared a flush with at least
	// one other frame.
	CoalescedFrames uint64
	// MultiGroupFlushes counts flushes whose batch mixed frames from
	// two or more groups: evidence that concurrent groups' bursts to the
	// same peer merged into one syscall.
	MultiGroupFlushes uint64
	// InboundDrops counts inbound messages discarded on full group
	// queues (multi-group endpoints only).
	InboundDrops uint64
	// PeerDowns counts the PeerWatcher reports raised.
	PeerDowns uint64
}

// Counters returns a snapshot of the endpoint's wire-level counters.
func (t *TCPEndpoint) Counters() WireCounters {
	return WireCounters{
		Frames:            t.framesSent.Load(),
		Flushes:           t.flushes.Load(),
		CoalescedFrames:   t.coalescedFrames.Load(),
		MultiGroupFlushes: t.multiGroupFlushes.Load(),
		InboundDrops:      t.inDrops.Load(),
		PeerDowns:         t.peerDowns.Load(),
	}
}

// Add accumulates o into c, for summing counters across endpoints.
func (c *WireCounters) Add(o WireCounters) {
	c.Frames += o.Frames
	c.Flushes += o.Flushes
	c.CoalescedFrames += o.CoalescedFrames
	c.MultiGroupFlushes += o.MultiGroupFlushes
	c.InboundDrops += o.InboundDrops
	c.PeerDowns += o.PeerDowns
}

// WatchPeers implements PeerWatcher.
func (t *TCPEndpoint) WatchPeers(fn func(types.ReplicaID)) { t.peerDown = fn }

// Start implements Transport: it binds the listen socket and begins
// accepting peer connections.
func (t *TCPEndpoint) Start() error {
	if !slices.ContainsFunc(t.handlers, func(h Handler) bool { return h != nil }) {
		return fmt.Errorf("tcp endpoint %v has no handler", t.self)
	}
	ln, err := net.Listen("tcp", t.addrs[t.self])
	if err != nil {
		return fmt.Errorf("listen %s: %w", t.addrs[t.self], err)
	}
	t.ln = ln
	for g := range t.inboxes {
		if t.handlers[g] == nil {
			continue
		}
		t.wg.Add(1)
		go t.deliverLoop(types.GroupID(g))
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

// deliverLoop drains one group's inbound queue, invoking the group
// handler on a goroutine the other groups do not share.
func (t *TCPEndpoint) deliverLoop(g types.GroupID) {
	defer t.wg.Done()
	h := t.handlers[g]
	inbox := t.inboxes[g]
	for {
		select {
		case <-t.quit:
			return
		case d := <-inbox:
			h(d.from, d.m)
		}
	}
}

// acceptLoop accepts inbound connections and spawns a reader per
// connection.
func (t *TCPEndpoint) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(conn) {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// splitGroupBody splits a frame body into its group tag and
// the encoded message bytes. It rejects bodies too short to carry the
// tag and tags at or above MaxGroups (which no conforming sender can
// produce, so they prove stream corruption).
func splitGroupBody(b []byte) (types.GroupID, []byte, error) {
	if len(b) < 4 {
		return 0, nil, msg.ErrTruncated
	}
	g := binary.LittleEndian.Uint32(b)
	if g >= MaxGroups {
		return 0, nil, fmt.Errorf("transport: group tag %d out of range", g)
	}
	return types.GroupID(g), b[4:], nil
}

// readBuf is the per-connection frame buffer: grow-only under load, so
// the steady state reuses one allocation across frames, but shrunk back
// to readRetainBytes after readShrinkAfter consecutive frames that
// would have fit the retained size — one oversized burst must not pin
// its high-water mark for the life of the connection.
type readBuf struct {
	buf   []byte
	quiet int // consecutive small frames while oversized
}

// frame returns a length-n slice to read the next frame body into,
// growing or shrinking the backing buffer as the traffic demands.
func (r *readBuf) frame(n uint32) []byte {
	switch {
	case uint32(cap(r.buf)) < n:
		r.buf = make([]byte, n)
		r.quiet = 0
	case cap(r.buf) > readRetainBytes && n <= readRetainBytes:
		r.quiet++
		if r.quiet >= readShrinkAfter {
			r.buf = make([]byte, readRetainBytes)
			r.quiet = 0
		}
	default:
		r.quiet = 0
	}
	return r.buf[:n]
}

// readLoop consumes frames from one inbound connection. Reads go
// through a bufio.Reader, frame bodies land in one reused buffer (see
// readBuf), and decoding goes through msg.DecodeRecycled, which backs
// the steady-state message types with pooled records the node event
// loop recycles after delivery — so the hot read path performs no
// per-frame allocation at all. Each frame's group tag demultiplexes it
// to the group's handler.
func (t *TCPEndpoint) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	br := bufio.NewReaderSize(conn, wireBufSize)
	var hs [8]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	from := types.ReplicaID(int32(binary.LittleEndian.Uint32(hs[4:])))
	if _, ok := t.addrs[from]; !ok || from == t.self ||
		binary.LittleEndian.Uint32(hs[:4]) != hsMagicV2 {
		return // no magic word, or an unknown sender: reject the connection
	}
	var rb readBuf
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return
		}
		frame := rb.frame(n)
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		g, frame, err := splitGroupBody(frame)
		if err != nil {
			return // corrupt stream: drop the connection
		}
		m, err := msg.DecodeRecycled(frame)
		if err != nil {
			return // corrupt stream: drop the connection
		}
		if int(g) >= len(t.handlers) || t.handlers[g] == nil {
			// A well-formed frame for a group this endpoint does not host:
			// drop it, like any best-effort delivery failure.
			msg.Recycle(m)
			continue
		}
		select {
		case <-t.quit:
			msg.Recycle(m)
			return // closing: drop instead of delivering into teardown
		default:
		}
		if t.inboxes != nil {
			// Multi-group endpoint: hand off to the group's delivery
			// goroutine so a stalled group cannot head-of-line-block its
			// siblings on this connection; its own overflow is dropped.
			select {
			case t.inboxes[g] <- inDelivery{from: from, m: m}:
			default:
				t.inDrops.Add(1)
				msg.Recycle(m)
			}
			continue
		}
		t.handlers[g](from, m)
	}
}

// Send implements Transport: it transmits on group 0.
func (t *TCPEndpoint) Send(to types.ReplicaID, m msg.Message) {
	t.SendGroup(to, 0, m)
}

// SendGroup implements GroupTransport.
func (t *TCPEndpoint) SendGroup(to types.ReplicaID, g types.GroupID, m msg.Message) {
	if g < 0 || int(g) >= t.opts.Groups {
		return // unconfigured group: drop, like any delivery failure
	}
	if p, ok := t.peer(to); ok {
		t.enqueue(p, newFrame(m, 1, g))
	}
}

// Broadcast implements Broadcaster: it fans out on group 0.
func (t *TCPEndpoint) Broadcast(dst []types.ReplicaID, m msg.Message) {
	t.BroadcastGroup(dst, 0, m)
}

// BroadcastGroup implements GroupBroadcaster: the frame — group tag
// included — is encoded once and the same bytes are queued to every
// destination.
func (t *TCPEndpoint) BroadcastGroup(dst []types.ReplicaID, g types.GroupID, m msg.Message) {
	if g < 0 || int(g) >= t.opts.Groups {
		return // unconfigured group: drop, like any delivery failure
	}
	n := 0
	for _, to := range dst {
		if to != t.self {
			n++
		}
	}
	if n == 0 {
		return
	}
	f := newFrame(m, int32(n), g)
	for _, to := range dst {
		if to == t.self {
			continue
		}
		if p, ok := t.peer(to); ok {
			t.enqueue(p, f)
		} else {
			f.release()
		}
	}
}

// enqueue hands f to a peer queue, dropping it if the queue is full
// (the protocols tolerate message loss).
func (t *TCPEndpoint) enqueue(p *tcpPeer, f *outFrame) {
	select {
	case p.outbox <- f:
	default:
		f.release()
	}
}

// peer returns (creating if needed) the outgoing queue for a replica.
func (t *TCPEndpoint) peer(to types.ReplicaID) (*tcpPeer, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false
	}
	p, ok := t.peers[to]
	if !ok {
		p = &tcpPeer{outbox: make(chan *outFrame, outboxLen)}
		t.peers[to] = p
		t.wg.Add(1)
		go t.writeLoop(to, p)
	}
	return p, true
}

// writeLoop owns the outgoing connection to one peer, redialing with
// backoff on failure. It drains the outbox in batches and writes them
// through a bufio.Writer, so a burst of queued frames costs one flush
// (typically one syscall) instead of one write per frame.
func (t *TCPEndpoint) writeLoop(to types.ReplicaID, p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	up := false // a link to `to` was established and not redialed since
	defer func() {
		if conn != nil {
			t.untrack(conn)
		}
	}()
	batch := make([]*outFrame, 0, maxWriteBatch)
	releaseBatch := func() {
		for i, f := range batch {
			f.release()
			batch[i] = nil
		}
		batch = batch[:0]
	}
	size := 0
	// drainMore coalesces whatever is already queued into the current
	// batch, up to the batch limits, reporting how many frames it added.
	drainMore := func() int {
		added := 0
		for len(batch) < maxWriteBatch && size < maxWriteBytes {
			select {
			case f := <-p.outbox:
				batch = append(batch, f)
				size += len(f.data)
				added++
				continue
			default:
			}
			break
		}
		return added
	}
	for {
		var f *outFrame
		select {
		case <-t.quit:
			return
		case f = <-p.outbox:
		}
		batch = append(batch, f)
		size = len(f.data)
		drainMore()
		for {
			// Frames queued while we were disconnected or backing off join
			// the batch: reconnection flushes the whole backlog at once.
			drainMore()
			if conn == nil {
				c, err := net.Dial("tcp", t.addrs[to])
				if err != nil {
					// A link that was up broke and the peer refuses: it exited.
					if up && errors.Is(err, syscall.ECONNREFUSED) {
						t.peerDowns.Add(1)
						t.peerDown(to)
					}
					up = false
					select {
					case <-t.quit:
						releaseBatch()
						return
					case <-time.After(t.opts.DialRetry):
						continue
					}
				}
				var hs [8]byte
				binary.LittleEndian.PutUint32(hs[:4], hsMagicV2)
				binary.LittleEndian.PutUint32(hs[4:], uint32(int32(t.self)))
				if _, err := c.Write(hs[:]); err != nil {
					c.Close()
					continue
				}
				if !t.track(c) {
					c.Close()
					releaseBatch()
					return
				}
				conn, up = c, true
				bw = bufio.NewWriterSize(conn, wireBufSize)
			}
			var err error
			written := 0
			for {
				// Write what the batch holds, then look again: frames that
				// other groups (or this group's next burst) queued while
				// these bytes were being buffered join the same flush. On a
				// multi-group endpoint, an empty re-drain yields the processor
				// once first — concurrent event loops bursting to this peer
				// are typically one schedule away from having enqueued —
				// which is what merges cross-group traffic into one syscall.
				for _, f := range batch[written:] {
					if _, err = bw.Write(f.data); err != nil {
						break
					}
				}
				if err != nil {
					break
				}
				written = len(batch)
				if len(batch) >= maxWriteBatch || size >= maxWriteBytes {
					break
				}
				n := drainMore()
				if n == 0 && t.inboxes != nil {
					runtime.Gosched()
					n = drainMore()
				}
				if n == 0 {
					break
				}
			}
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				t.untrack(conn)
				conn, bw = nil, nil
				continue // redial and resend the whole batch
			}
			t.framesSent.Add(uint64(len(batch)))
			t.flushes.Add(1)
			if len(batch) > 1 {
				t.coalescedFrames.Add(uint64(len(batch)))
				for _, f := range batch[1:] {
					if f.group != batch[0].group {
						t.multiGroupFlushes.Add(1)
						break
					}
				}
			}
			break
		}
		releaseBatch()
	}
}

// Close implements Transport.
func (t *TCPEndpoint) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.quit)
	if t.ln != nil {
		t.ln.Close()
	}
	// Unblock reader goroutines parked on open connections.
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// track registers a live connection; it returns false if the endpoint
// is closing (the caller must close the connection itself).
func (t *TCPEndpoint) track(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

// untrack closes and forgets a connection.
func (t *TCPEndpoint) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	c.Close()
}
