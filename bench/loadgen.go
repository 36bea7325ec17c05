package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clockrsm/client"
	"clockrsm/internal/stats"
)

// Value layout: tag (8) | per-key sequence number (8) | seeded filler.
const valueHeader = 16

func valueSeq(v []byte) int64 {
	if len(v) < valueHeader {
		return 0 // absent key, or a value this generator never wrote
	}
	return int64(binary.LittleEndian.Uint64(v[8:16]))
}

// opRec is one open-loop request, kept so the fault schedule can find
// the first request due after each crash.
type opRec struct{ due, end time.Time }

// recorder collects the results of the requests one goroutine (closed
// loop) or one client (open loop, under mu) issued.
type recorder struct {
	mu       sync.Mutex
	put, get stats.Sample // latencies of window requests
	late     stats.Sample // open loop: fire time minus due time
	// lastEnd is when the last window request returned, counted from the
	// window opening.
	lastEnd    time.Duration
	ops        []opRec
	attempted  int64
	failed     int64
	violations []string
}

// loadgen turns a workload and a seed into requests. Everything that
// depends on the seed lives here: key choice, op mix and value bytes.
// The cluster sees only the requests.
type loadgen struct {
	w       *workload
	seed    int64
	clients []*client.Client
	tr      *tracer
	// traceEvery traces one window PUT in this many (per issuer).
	traceEvery uint64

	keys []string
	// seqs is each key's last issued sequence number, touched only by
	// the key's single writer; lastAcked is the last acknowledged one,
	// read by any reader.
	seqs      []int64
	lastAcked []atomic.Int64
	filler    []byte

	// The measured window is fixed at launch: requests that start (open
	// loop: are due) inside [t0, t1) are the run's requests.
	t0, t1 time.Time
	recs   []*recorder
}

func newLoadgen(w *workload, seed int64, clients []*client.Client, tr *tracer) *loadgen {
	g := &loadgen{w: w, seed: seed, clients: clients, tr: tr, traceEvery: 8}
	n := w.keys
	if w.open {
		g.traceEvery = 1 // low rate: trace every request
		n = w.keys * w.clients
	}
	g.keys = make([]string, n)
	for i := range g.keys {
		if w.open {
			g.keys[i] = fmt.Sprintf("c%d-k%04d", i/w.keys, i%w.keys)
		} else {
			g.keys[i] = fmt.Sprintf("k%05d", i)
		}
	}
	g.seqs = make([]int64, n)
	g.lastAcked = make([]atomic.Int64, n)
	g.filler = make([]byte, 4096)
	rand.New(rand.NewSource(seed)).Read(g.filler)
	return g
}

// fill writes the value for (tag, seq) into v.
func (g *loadgen) fill(v []byte, tag uint64, seq int64) {
	binary.LittleEndian.PutUint64(v[0:8], tag)
	binary.LittleEndian.PutUint64(v[8:16], uint64(seq))
	off := (uint64(seq)*31 + tag*17) % uint64(len(g.filler)-len(v))
	copy(v[valueHeader:], g.filler[off:])
}

// put issues one PUT of key k and checks its reply: the previous value
// a PUT returns is a linearizable read of the key, so on a key with a
// single writer it must carry a sequence number at least the last
// acknowledged one and below this one.
func (g *loadgen) put(c *client.Client, rec *recorder, k int, tag uint64, value []byte) error {
	g.seqs[k]++
	seq := g.seqs[k]
	floor := g.lastAcked[k].Load()
	g.fill(value, tag, seq)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	prev, err := c.Put(ctx, g.keys[k], value)
	cancel()
	if err != nil {
		return err
	}
	if ps := valueSeq(prev); ps < floor || ps >= seq {
		rec.violate("PUT %s seq %d returned previous seq %d, but seq %d was acknowledged before it was issued", g.keys[k], seq, ps, floor)
	}
	g.lastAcked[k].Store(seq)
	return nil
}

// getLin issues one linearizable read of key k: it must observe every
// write acknowledged before it was issued.
func (g *loadgen) getLin(c *client.Client, rec *recorder, k int) error {
	floor := g.lastAcked[k].Load()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	v, err := c.GetLin(ctx, g.keys[k])
	cancel()
	if err != nil {
		return err
	}
	if got := valueSeq(v); got < floor {
		rec.violate("GETL %s returned seq %d, but seq %d was acknowledged before the read was issued", g.keys[k], got, floor)
	}
	return nil
}

func (r *recorder) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// done records one finished request that started at start.
func (g *loadgen) done(rec *recorder, lat *stats.Sample, start, end time.Time, err error) {
	if start.Before(g.t0) {
		return // warm-up
	}
	rec.attempted++
	if err != nil {
		// A failed request misses any latency limit: it is charged the
		// time-out, so shedding load never reads as a latency gain.
		rec.failed++
		lat.Add(opTimeout)
		return
	}
	lat.Add(end.Sub(start))
	rec.lastEnd = max(rec.lastEnd, end.Sub(g.t0))
}

// preload writes every key once through the clients, so reads find
// them. It is part of set-up.
func (g *loadgen) preload() error {
	const workers = 128
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rec := &recorder{}
			value := make([]byte, g.w.valueSize)
			for k := wk; k < len(g.keys); k += workers {
				if err := g.put(g.clients[k%len(g.clients)], rec, k, makeTag(0, 0, false), value); err != nil {
					errs[wk] = fmt.Errorf("preload %s: %w", g.keys[k], err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run drives the workload: warm-up from launch, then the measured
// window of length d. It returns once every request it issued has
// finished.
func (g *loadgen) run(launch time.Time, d time.Duration) {
	g.t0 = launch.Add(g.w.warmUp())
	g.t1 = g.t0.Add(d)
	var wg sync.WaitGroup
	if g.w.open {
		for c := range g.clients {
			rec := &recorder{}
			g.recs = append(g.recs, rec)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				g.openLoop(c, rec, launch)
			}(c)
		}
	} else {
		for c := range g.clients {
			for j := 0; j < g.w.callers; j++ {
				rec := &recorder{}
				g.recs = append(g.recs, rec)
				wg.Add(1)
				go func(c, caller int) {
					defer wg.Done()
					g.closedLoop(c, caller, rec)
				}(c, c*g.w.callers+j)
			}
		}
	}
	wg.Wait()
}

// openLoop fires client c's requests on a fixed schedule regardless of
// how the cluster is doing; each is timed from its due time. Keys are
// walked in a seeded order, so a key's next write is due keys/rate
// seconds after its previous one and never overlaps it.
func (g *loadgen) openLoop(c int, rec *recorder, launch time.Time) {
	rng := rand.New(rand.NewSource(g.seed*7919 + int64(c)))
	order := rng.Perm(g.w.keys)
	interval := time.Second / time.Duration(g.w.rate)
	var wg sync.WaitGroup
	for n := 0; ; n++ {
		due := launch.Add(time.Duration(n) * interval)
		if !due.Before(g.t1) {
			break
		}
		time.Sleep(time.Until(due))
		fired := time.Now()
		k := c*g.w.keys + order[n%len(order)]
		inWindow := !due.Before(g.t0)
		tag := makeTag(c, uint64(n), g.tr != nil && inWindow)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sp *span
			if tag&tagTraced != 0 {
				sp = g.tr.begin(tag, int64(due.Sub(g.tr.base)))
			}
			err := g.put(g.clients[c], rec, k, tag, make([]byte, g.w.valueSize))
			end := time.Now()
			if sp != nil && err == nil {
				g.tr.finish(sp, int64(end.Sub(g.tr.base)))
			}
			rec.mu.Lock()
			g.done(rec, &rec.put, due, end, err)
			if inWindow {
				rec.late.Add(fired.Sub(due))
				if err == nil {
					rec.ops = append(rec.ops, opRec{due: due, end: end})
				}
			}
			rec.mu.Unlock()
		}()
	}
	wg.Wait()
}

// closedLoop is one caller on client c: it issues its next request when
// the previous one returned. Caller j writes only keys k with
// k mod callers == j (one writer per key); it reads any key.
func (g *loadgen) closedLoop(c, caller int, rec *recorder) {
	rng := rand.New(rand.NewSource(g.seed*7919 + int64(caller)))
	zipf := rand.NewZipf(rng, g.w.zipf, 1, uint64(len(g.keys)-1))
	callers := g.w.clients * g.w.callers
	value := make([]byte, g.w.valueSize)
	cl := g.clients[c]
	for n := uint64(0); ; n++ {
		start := time.Now()
		if !start.Before(g.t1) {
			return
		}
		k := int(zipf.Uint64())
		if g.w.readShare > 0 && rng.Float64() < g.w.readShare {
			err := g.getLin(cl, rec, k)
			g.done(rec, &rec.get, start, time.Now(), err)
			continue
		}
		// The caller's own key of the same popularity bucket.
		if k = k - k%callers + caller; k >= len(g.keys) {
			k -= callers
		}
		inWindow := !start.Before(g.t0)
		tag := makeTag(c, uint64(caller)<<32|n, g.tr != nil && inWindow && n%g.traceEvery == 0)
		var sp *span
		if tag&tagTraced != 0 {
			sp = g.tr.begin(tag, int64(start.Sub(g.tr.base)))
		}
		err := g.put(cl, rec, k, tag, value)
		end := time.Now()
		if sp != nil && err == nil {
			g.tr.finish(sp, int64(end.Sub(g.tr.base)))
		}
		g.done(rec, &rec.put, start, end, err)
	}
}
