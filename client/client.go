// Package client is the Go client library for the clockrsm front door
// (internal/rpc): a pipelined, failover-aware connection to a replica
// group's kvservers.
//
// One Client multiplexes every request over a single TCP connection —
// requests carry IDs, the server completes them out of order, and a
// bounded in-flight window (Config.Window) is the client-side admission
// ticket — so N concurrent callers share one socket instead of N.
//
// # Failover and resubmission
//
// The Client owns the retry policy a correct RSM client needs:
//
//   - Typed replication errors are resubmitted automatically.
//     node.ErrNotInConfig and node.ErrReconfigured both guarantee the
//     command never executed (the PR 4 error contract), so the Client
//     fails over to the next replica and resubmits, invisibly to the
//     caller, up to maxAttempts (8) tries.
//   - rpc.StatusWrongGroup (a key caught mid-migration by a live group
//     split for longer than the server would wait) is resubmitted on
//     the same connection: the command was fenced before execution, so
//     the resubmission preserves at-most-once, and the server re-routes
//     it against its refreshed routing table.
//   - Connection loss is resubmitted only when it is safe. Requests
//     that were never written, and reads (idempotent by nature), are
//     re-sent on the next connection. A write that was already on the
//     wire when the connection died has unknown fate — resubmitting it
//     could execute it twice — so it fails with ErrConnLost and the
//     decision returns to the caller.
//   - Overload is returned, not retried: rpc.ErrOverloaded reports the
//     server shed the request before doing any work; hammering a
//     shedding server defeats its admission control, so backoff belongs
//     to the caller.
//
// # Session stickiness
//
// GetSeq reads are monotonic across replicas and across failover: the
// Client carries one session token (the newest watermark any of its
// sequential reads observed), sends it with every GetSeq, and folds the
// served watermark back in. The token — not the connection — holds the
// monotonicity state, so a sequential read after failover still never
// observes older state than the reads before it.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/rpc"
)

// Errors returned by the Client.
var (
	// ErrClosed reports a call on a closed Client.
	ErrClosed = errors.New("client: closed")
	// ErrConnLost reports a non-idempotent request that was on the wire
	// when the connection died: its fate is unknown (it may have
	// committed), so the Client refuses to resubmit it.
	ErrConnLost = errors.New("client: connection lost with write in flight (fate unknown)")
	// ErrTooManyAttempts reports a request that exhausted its
	// maxAttempts tries.
	ErrTooManyAttempts = errors.New("client: too many attempts")
)

// Config configures a Client.
type Config struct {
	// Addrs are the replicas' front-door addresses, tried in order on
	// connect and failover. Required.
	Addrs []string
	// Window bounds requests in flight (sent or queued, unanswered)
	// across the whole Client (default 64). It is the pipelining depth
	// over the single connection.
	Window int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
}

// Retry policy.
const (
	// retryBackoff is the pause between failed passes over the replica
	// addresses.
	retryBackoff = 50 * time.Millisecond
	// maxAttempts bounds the total tries of one request across typed
	// resubmissions.
	maxAttempts = 8
	// drainTimeout bounds the drain-then-switch window after a
	// NotInConfig response: the Client stops sending, lets the replica
	// answer what is already in flight (each pending request gets its
	// own typed, resubmit-safe response), then switches replicas;
	// stragglers past the bound are cut off.
	drainTimeout = 2 * time.Second
)

func (c *Config) defaults() error {
	if len(c.Addrs) == 0 {
		return errors.New("client: no addresses")
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	return nil
}

// call is one in-flight request.
type call struct {
	req rpc.Request // Key/Value owned by the call
	// idempotent requests (reads) may be re-sent after an unclean
	// connection loss; non-idempotent ones (writes, admin) may not.
	idempotent bool
	attempts   int
	res        rpc.Response // Value owned (copied on delivery)
	err        error
	done       chan struct{}
}

// Client is a pipelined front-door client. It is safe for concurrent
// use; all callers share the connection, the window and the session.
type Client struct {
	cfg Config

	ids     atomic.Uint64
	session atomic.Int64

	sendq  chan *call    // unsent requests; survives connection switches
	window chan struct{} // in-flight window semaphore

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu      sync.Mutex
	pending map[uint64]*call // sent, unanswered (current connection)
	conn    net.Conn         // current connection (nil between)
	addrIdx int
}

// Dial creates a Client and starts its connection manager. It returns
// without waiting for a connection: requests queue until one is up.
func Dial(cfg Config) (*Client, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:     cfg,
		sendq:   make(chan *call, cfg.Window),
		window:  make(chan struct{}, cfg.Window),
		closed:  make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	c.wg.Add(1)
	go c.run()
	return c, nil
}

// Close tears the connection down and fails every outstanding request
// with ErrClosed. Idempotent.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	return nil
}

// Session returns the client's sequential-read session token: the
// newest watermark any GetSeq through this client has observed.
func (c *Client) Session() int64 { return c.session.Load() }

// run is the connection manager: connect, serve until the connection
// dies, decide each pending request's fate, fail over, repeat.
func (c *Client) run() {
	defer c.wg.Done()
	defer c.failAll(ErrClosed)
	for {
		conn, err := c.dialNext()
		if err != nil {
			return // closed
		}
		c.serveConn(conn)
		select {
		case <-c.closed:
			return
		default:
		}
	}
}

// dialNext tries replicas round-robin until one accepts, pausing
// retryBackoff between full passes. Only Close stops it.
func (c *Client) dialNext() (net.Conn, error) {
	for {
		for range c.cfg.Addrs {
			select {
			case <-c.closed:
				return nil, ErrClosed
			default:
			}
			c.mu.Lock()
			addr := c.cfg.Addrs[c.addrIdx%len(c.cfg.Addrs)]
			c.addrIdx++
			c.mu.Unlock()
			conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
			if err != nil {
				continue
			}
			c.mu.Lock()
			select {
			case <-c.closed:
				c.mu.Unlock()
				conn.Close()
				return nil, ErrClosed
			default:
			}
			c.conn = conn
			c.mu.Unlock()
			return conn, nil
		}
		select {
		case <-c.closed:
			return nil, ErrClosed
		case <-time.After(retryBackoff):
		}
	}
}

// serveConn pumps the send queue onto conn and responses off it until
// the connection dies (IO error, drain switch, or Close), then settles
// every request that was pending on it.
func (c *Client) serveConn(conn net.Conn) {
	defer func() {
		c.mu.Lock()
		c.conn = nil
		c.mu.Unlock()
	}()
	// draining flips when a NotInConfig response tells us this replica
	// is done: the writer stops feeding it, the reader keeps collecting
	// the typed responses already owed, and a timer cuts off stragglers.
	// writerParked acknowledges the writer has flushed and stopped — only
	// then is "pending empty" a complete drain (the writer may hold a
	// dequeued request it has not registered yet).
	var draining, writerParked atomic.Bool
	drainCh := make(chan struct{})
	var drainTimer *time.Timer
	startDrain := func() {
		if draining.CompareAndSwap(false, true) {
			close(drainCh)
			drainTimer = time.AfterFunc(drainTimeout, func() { conn.Close() })
		}
	}
	defer func() {
		if drainTimer != nil {
			drainTimer.Stop()
		}
	}()

	writerDone := make(chan struct{})
	readerDone := make(chan struct{})

	// Writer: drain the send queue through one bufio.Writer, flushing
	// when the queue runs empty (write coalescing: one syscall covers a
	// burst of pipelined requests).
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, 64<<10)
		if err := rpc.WriteMagic(bw); err != nil {
			conn.Close()
			return
		}
		var enc []byte
		send1 := func(ca *call) bool {
			if ca.req.Verb == rpc.VGetS {
				// Freshest token at send time, so a resubmitted read after
				// failover still carries everything the session observed.
				ca.req.Session = c.session.Load()
			}
			c.mu.Lock()
			c.pending[ca.req.ID] = ca
			c.mu.Unlock()
			enc = rpc.AppendRequest(enc[:0], &ca.req)
			_, err := bw.Write(enc)
			return err == nil
		}
		for {
			if draining.Load() {
				// Replica on its way out: flush anything buffered (so every
				// request we count as pending is really on the wire and gets
				// its typed response), then park until the reader finishes
				// the drain. Queued requests wait for the next connection.
				if bw.Flush() != nil {
					conn.Close()
					return
				}
				writerParked.Store(true)
				if c.pendingEmpty() {
					// Nothing owed: the drain is already complete. The reader
					// may have checked before we parked, so close from here.
					conn.Close()
				}
				select {
				case <-readerDone:
				case <-c.closed:
				}
				return
			}
			select {
			case ca := <-c.sendq:
				if !send1(ca) {
					conn.Close()
					return
				}
				// Keep writing as long as requests are queued; flush once
				// the burst is drained.
				for more := true; more; {
					select {
					case ca := <-c.sendq:
						if !send1(ca) {
							conn.Close()
							return
						}
					default:
						more = false
					}
				}
				if bw.Flush() != nil {
					conn.Close()
					return
				}
			case <-drainCh:
				// Wake from an idle wait so the loop top parks for the drain.
				continue
			case <-readerDone:
				return
			case <-c.closed:
				conn.Close()
				return
			}
		}
	}()

	// Reader: match responses to pending calls, settling each one.
	var buf []byte
	var resp rpc.Response
	for {
		payload, err := rpc.ReadFrame(conn, &buf)
		if err != nil {
			break
		}
		if err := rpc.DecodeResponse(payload, &resp); err != nil {
			break
		}
		c.mu.Lock()
		ca, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !ok {
			continue // late response for a request we already settled
		}
		c.settle(ca, &resp, startDrain)
		if draining.Load() && writerParked.Load() && c.pendingEmpty() {
			break // drain complete: every owed response collected
		}
	}
	close(readerDone)
	conn.Close()
	<-writerDone

	// Fate of requests still pending on the dead connection: reads are
	// idempotent — resubmit on the next connection; writes on the wire
	// have unknown fate — fail them rather than risk double execution.
	c.mu.Lock()
	orphans := make([]*call, 0, len(c.pending))
	for id, ca := range c.pending {
		orphans = append(orphans, ca)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	for _, ca := range orphans {
		if ca.idempotent {
			c.requeue(ca)
		} else {
			c.deliverErr(ca, ErrConnLost)
		}
	}
}

func (c *Client) pendingEmpty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending) == 0
}

// settle resolves one answered request: deliver, or resubmit on the
// typed replication errors (safe by contract — the command never
// executed).
func (c *Client) settle(ca *call, resp *rpc.Response, startDrain func()) {
	switch resp.Status {
	case rpc.StatusNotInConfig, rpc.StatusReconfigured:
		// This replica cannot serve us (and with NotInConfig, will not
		// again): collect what it still owes, then switch. The command
		// never executed, so resubmission is always safe.
		startDrain()
		ca.attempts++
		if ca.attempts >= maxAttempts {
			c.deliverErr(ca, fmt.Errorf("%w: %d tries, last: %v", ErrTooManyAttempts, ca.attempts, resp.Status.Err(nil)))
			return
		}
		c.requeue(ca)
	case rpc.StatusWrongGroup:
		// The key's slot was mid-migration for longer than the server was
		// willing to wait. The command was fenced, not executed, so
		// resubmission is safe; and the replica itself is healthy — every
		// kvserver hosts every group — so resend on this connection (no
		// drain) and let the server re-route against its refreshed table.
		ca.attempts++
		if ca.attempts >= maxAttempts {
			c.deliverErr(ca, fmt.Errorf("%w: %d tries, last: %v", ErrTooManyAttempts, ca.attempts, resp.Status.Err(nil)))
			return
		}
		c.requeue(ca)
	default:
		if resp.Status == rpc.StatusOK && ca.req.Verb == rpc.VGetS {
			c.advanceSession(resp.Watermark)
		}
		ca.res = *resp
		if resp.Value != nil {
			ca.res.Value = append([]byte(nil), resp.Value...)
		}
		ca.err = resp.Status.Err(ca.res.Value)
		if ca.err != nil {
			ca.res.Value = nil
		}
		c.deliver(ca)
	}
}

// advanceSession folds a served watermark into the session token
// (monotonic max).
func (c *Client) advanceSession(w int64) {
	for {
		cur := c.session.Load()
		if w <= cur || c.session.CompareAndSwap(cur, w) {
			return
		}
	}
}

// requeue puts a request back on the send queue for the next (or
// current) connection. Capacity cannot overflow: every outstanding
// request holds a window slot and the queue is window-sized.
func (c *Client) requeue(ca *call) {
	select {
	case c.sendq <- ca:
	case <-c.closed:
		c.deliverErr(ca, ErrClosed)
	}
}

func (c *Client) deliver(ca *call) {
	close(ca.done)
	<-c.window
}

func (c *Client) deliverErr(ca *call, err error) {
	ca.err = err
	c.deliver(ca)
}

// failAll settles everything outstanding with err (Close path).
func (c *Client) failAll(err error) {
	c.mu.Lock()
	orphans := make([]*call, 0, len(c.pending))
	for id, ca := range c.pending {
		orphans = append(orphans, ca)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	for _, ca := range orphans {
		c.deliverErr(ca, err)
	}
	for {
		select {
		case ca := <-c.sendq:
			c.deliverErr(ca, err)
		default:
			return
		}
	}
}

// requestOverhead is the fixed part of a request frame's payload in
// rpc.AppendRequest's layout: verb, ID, session, max age and the key and
// value length prefixes.
const requestOverhead = 1 + 8 + 8 + 8 + 4 + 4

// do submits one request and waits for its result. ctx bounds only the
// wait: an abandoned request still runs to completion in the background
// (its window slot frees when the response arrives).
func (c *Client) do(ctx context.Context, verb rpc.Verb, key string, value []byte, sess int64, maxAge int64, idem bool) (rpc.Response, error) {
	// The server drops a connection whose frame exceeds rpc.MaxFrame, so
	// such a request could never be answered: a read would be resent on
	// every reconnect and a write would fail as ErrConnLost.
	if n := requestOverhead + len(key) + len(value); n > rpc.MaxFrame {
		return rpc.Response{}, fmt.Errorf("%w: %d-byte request frame exceeds the %d-byte limit", rpc.ErrBadRequest, n, rpc.MaxFrame)
	}
	ca := &call{
		req: rpc.Request{
			ID:      c.ids.Add(1),
			Verb:    verb,
			Key:     []byte(key),
			Value:   value,
			Session: sess,
			MaxAge:  maxAge,
		},
		idempotent: idem,
		attempts:   1,
		done:       make(chan struct{}),
	}
	// Window slot first: the in-flight bound covers queued requests too.
	select {
	case c.window <- struct{}{}:
	case <-c.closed:
		return rpc.Response{}, ErrClosed
	case <-ctx.Done():
		return rpc.Response{}, ctx.Err()
	}
	select {
	case c.sendq <- ca:
	case <-c.closed:
		<-c.window
		return rpc.Response{}, ErrClosed
	}
	select {
	case <-ca.done:
		return ca.res, ca.err
	case <-ctx.Done():
		return rpc.Response{}, ctx.Err()
	}
}

// Put replicates a write and returns the key's previous value.
func (c *Client) Put(ctx context.Context, key string, value []byte) ([]byte, error) {
	if value == nil {
		value = []byte{}
	}
	res, err := c.do(ctx, rpc.VPut, key, value, 0, 0, false)
	return res.Value, err
}

// Del replicates a delete and returns the deleted value.
func (c *Client) Del(ctx context.Context, key string) ([]byte, error) {
	res, err := c.do(ctx, rpc.VDel, key, nil, 0, 0, false)
	return res.Value, err
}

// Get reads through the replication log — the strongest (and slowest)
// read, totally ordered with every write.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	res, err := c.do(ctx, rpc.VGet, key, nil, 0, 0, true)
	return res.Value, err
}

// GetLin is a linearizable local read: served from the replica's
// stable prefix once its watermark covers the read's capture time; no
// replication traffic.
func (c *Client) GetLin(ctx context.Context, key string) ([]byte, error) {
	res, err := c.do(ctx, rpc.VGetL, key, nil, 0, 0, true)
	return res.Value, err
}

// GetSeq is a sequential read: immediate, and monotonic across every
// replica this client talks to — including across failover — through
// the client's session token.
func (c *Client) GetSeq(ctx context.Context, key string) ([]byte, error) {
	res, err := c.do(ctx, rpc.VGetS, key, nil, c.session.Load(), 0, true)
	return res.Value, err
}

// GetStale is a bounded-staleness read: immediate, served if the
// replica's watermark is at most maxAge old (ErrTooStale otherwise;
// maxAge ≤ 0 serves unconditionally).
func (c *Client) GetStale(ctx context.Context, key string, maxAge time.Duration) ([]byte, error) {
	res, err := c.do(ctx, rpc.VGetA, key, nil, 0, int64(maxAge), true)
	return res.Value, err
}

// Admin sends one operator line (MEMBERS, EPOCH, STATUS, RECONF ...)
// and returns the reply line.
func (c *Client) Admin(ctx context.Context, line string) (string, error) {
	res, err := c.do(ctx, rpc.VAdmin, "", []byte(line), 0, 0, false)
	return string(res.Value), err
}
