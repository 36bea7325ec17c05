package runner

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/reshard"
	"clockrsm/internal/types"
)

// clientKey picks the key client cli writes and the group it routes
// to: clients are spread round-robin over the table's groups, and each
// probes for a key the table actually maps to its group, so the run
// exercises the same key→group dispatch the hosts perform.
func clientKey(tbl *reshard.Table, cli int) (string, types.GroupID) {
	want := types.GroupID(cli % tbl.Groups())
	for salt := 0; ; salt++ {
		key := fmt.Sprintf("key-%d-%d", cli, salt)
		if tbl.Group(key) == want {
			return key, want
		}
	}
}

// clientKeys returns clientKey's key for clients 0..n-1.
func (c *cluster) clientKeys(n int) []string {
	tbl := c.table()
	keys := make([]string, n)
	for cli := range keys {
		keys[cli], _ = clientKey(tbl, cli)
	}
	return keys
}

// closedLoop is the load side of a Run* harness: zero-think client
// goroutines, each repeating one operation until the loop is stopped.
// It keeps the first failure any of them hits, so a protocol failure
// names itself instead of presenting as a throughput of zero.
type closedLoop struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	measuring atomic.Bool
	once      sync.Once
	err       error
}

func newClosedLoop() *closedLoop { return &closedLoop{stop: make(chan struct{})} }

// client starts one client: it repeats op until the loop stops or op
// fails, adding the operations that complete inside the measured window
// to done (nil for a client that keeps its own books).
func (l *closedLoop) client(done *atomic.Uint64, op func() error) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for !l.stopped() {
			if err := op(); err != nil {
				l.fail(err)
				return
			}
			if done != nil && l.measuring.Load() {
				done.Add(1)
			}
		}
	}()
}

func (l *closedLoop) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// fail records a client failure. node.ErrStopped once the loop is
// stopping is the shutdown, not a failure.
func (l *closedLoop) fail(err error) {
	if errors.Is(err, node.ErrStopped) && l.stopped() {
		return
	}
	l.once.Do(func() { l.err = err })
}

// finish stops the clients, waits for them and returns the first
// client failure.
func (l *closedLoop) finish() error {
	close(l.stop)
	l.wg.Wait()
	return l.err
}

// measure lets the clients warm up, keeps the window open for d, stops
// them, and returns the window's length and the first client failure.
func (l *closedLoop) measure(warmup, d time.Duration) (time.Duration, error) {
	time.Sleep(warmup)
	l.measuring.Store(true)
	start := time.Now()
	time.Sleep(d)
	l.measuring.Store(false)
	elapsed := time.Since(start)
	return elapsed, l.finish()
}

// ackedWriters is the load of the fault scenarios: closed-loop clients,
// one key each, writing "c<client>-<seq>" with seq counting up. A write
// is retried until acked, and the highest acked seq per key is the
// floor every later observation of that key must reach: a linearizable
// read at another replica while the faults run, and the converged
// store after them.
type ackedWriters struct {
	c    *cluster
	keys []string
	// step bounds one proposal or read attempt.
	step time.Duration
	load *closedLoop

	mu   sync.Mutex
	last map[string]int

	acked, resubmitted, reads atomic.Uint64
	// maxStall is the longest a single write took from first attempt to
	// ack, in nanoseconds.
	maxStall atomic.Int64
}

// startWriters starts one writer per key.
func (c *cluster) startWriters(keys []string, step time.Duration) *ackedWriters {
	w := &ackedWriters{c: c, keys: keys, step: step, load: newClosedLoop(), last: make(map[string]int)}
	for cli := range keys {
		w.load.client(nil, w.client(cli))
	}
	return w
}

// lastAcked returns the highest acked seq of key, -1 before the first.
func (w *ackedWriters) lastAcked(key string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.last[key]; ok {
		return s
	}
	return -1
}

// client returns writer cli's operation: one acked write and, after
// every fourth, a linearizable read of the key at another replica.
func (w *ackedWriters) client(cli int) func() error {
	key, seq, n := w.keys[cli], 0, w.c.spec.replicas
	return func() error {
		payload := kvstore.Put(key, []byte(fmt.Sprintf("c%d-%d", cli, seq)))
		// Retry the same payload until acked, rotating the target so a
		// client whose preferred replica is dead, partitioned or
		// reconfigured out moves on. A key has at most one write
		// outstanding, so resubmitting after an ambiguous failure can at
		// worst commit the same value twice in a row. Execute routes by
		// the host's live table and waits out a migration fence itself.
		issued := time.Now()
		for attempt := 0; ; attempt++ {
			if w.load.stopped() {
				return node.ErrStopped
			}
			target := w.c.pick(cli+attempt, -1)
			if target == nil {
				return fmt.Errorf("client %d: no live replica", cli)
			}
			ctx, cancel := context.WithTimeout(context.Background(), w.step)
			_, err := target.host.Execute(ctx, key, payload)
			cancel()
			if err == nil {
				break
			}
			w.resubmitted.Add(1)
		}
		w.mu.Lock()
		w.last[key] = seq
		w.mu.Unlock()
		w.acked.Add(1)
		if d := int64(time.Since(issued)); d > w.maxStall.Load() {
			w.maxStall.Store(d)
		}
		if seq++; seq%4 != 0 || w.load.stopped() {
			return nil
		}
		rd := w.c.pick(cli+1, cli%n)
		if rd == nil {
			return nil
		}
		err := w.readAt(rd, key, w.step)
		switch {
		case err == nil:
		case errors.Is(err, node.ErrNotInConfig), errors.Is(err, node.ErrStopped),
			errors.Is(err, context.DeadlineExceeded), errors.Is(err, node.ErrCanceled):
			// The serving replica was mid-fault, mid-crash or mid-rejoin:
			// a read parked behind a stalled watermark times out rather
			// than being served stale, and there is nothing to check.
		default:
			return fmt.Errorf("client %d: %w", cli, err)
		}
		return nil
	}
}

// readAt issues a linearizable read of key at r and requires it to
// observe every write acked before the read was issued.
func (w *ackedWriters) readAt(r *replica, key string, timeout time.Duration) error {
	floor := w.lastAcked(key)
	if floor < 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := r.host.ReadKey(ctx, key, kvstore.Get(key), node.Linearizable)
	if err != nil {
		return fmt.Errorf("linearizable read of %q at %v: %w", key, r.host.ID(), err)
	}
	if got, perr := parseSeq(res.Value); perr != nil || got < floor {
		gs := r.host.Status().Groups[r.host.Table().Group(key)]
		return fmt.Errorf("linearizable read of %q at %v returned seq %d (%v), but seq %d was acked before the read (served at watermark=%d age=%v replicated=%t; server epoch=%d inConfig=%t members=%v watermark=%d)",
			key, r.host.ID(), got, perr, floor, res.Watermark, res.Age, res.Replicated, gs.Epoch, gs.InConfig, gs.Members, gs.ReadWatermark)
	}
	w.reads.Add(1)
	return nil
}

// finish stops the writers and returns the first failure any hit.
func (w *ackedWriters) finish() error { return w.load.finish() }

// survived checks zero lost acks once the stores have converged: every
// key, in the group that owns it now, holds a value at least as new as
// its last acked write.
func (w *ackedWriters) survived() error {
	r := w.c.pick(0, -1)
	tbl := r.host.Table()
	for _, key := range w.keys {
		floor := w.lastAcked(key)
		if floor < 0 {
			continue
		}
		g := tbl.Group(key)
		val, ok := r.stores[g].Lookup(key)
		if !ok {
			return fmt.Errorf("key %q (group %v) lost: seq %d was acked but the key is absent after convergence", key, g, floor)
		}
		got, err := parseSeq(val)
		if err != nil {
			return fmt.Errorf("key %q holds %q: %v", key, val, err)
		}
		if got < floor {
			return fmt.Errorf("key %q converged to seq %d, but seq %d was acked (acked write lost or stale duplicate executed)", key, got, floor)
		}
	}
	return nil
}

// parseSeq extracts the sequence number from a "c<client>-<seq>" value.
func parseSeq(val []byte) (int, error) {
	s := string(val)
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return 0, fmt.Errorf("malformed value %q", s)
	}
	return strconv.Atoi(s[i+1:])
}
