package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"clockrsm/client"
	"clockrsm/internal/analysis"
	"clockrsm/internal/node"
	"clockrsm/internal/rpc"
	"clockrsm/internal/stats"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
)

// runResult is what one run of one workload produced.
type runResult struct {
	violations []string
	attempted  int64
	failed     int64
	puts, gets int
	// e2e holds the end-to-end metrics; layer the per-layer ones and
	// spans the traced PUTs (nil where the run did not produce them).
	e2e   map[string]float64
	layer map[string]float64
	spans []*span
}

// snapshot is the process and cluster state at one edge of the
// measured window; metrics are end minus start.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	mem      runtime.MemStats
	status   []node.HostStatus
	rpc      []rpc.Counters
	wire     transport.WireCounters
	logBytes int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// take snapshots the window edge. The layer state costs a
// stop-the-world and a few locks, so only runs that report layers read
// it.
func (c *cluster) take(layers bool) snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime()}
	if !layers {
		return s
	}
	runtime.ReadMemStats(&s.mem)
	for _, r := range c.live() {
		s.status = append(s.status, r.host.Status())
		s.rpc = append(s.rpc, r.srv.Counters())
		// The crash victim's counters restart with each incarnation, so
		// there the wire counters are the survivors'.
		if r.tcp != nil && !(c.w.crash && r.id == c.victim()) {
			s.wire.Add(r.tcp.Counters())
		}
	}
	if c.w.fileLog {
		// A failed walk leaves the size at what was summed so far; it only
		// feeds storage.bytes_per_op.
		filepath.Walk(c.dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				s.logBytes += fi.Size()
			}
			return nil
		})
	}
	return s
}

// setUp builds the cluster, dials the clients, proves every front door
// commits and preloads the keys: everything a run needs before its own
// load starts.
func setUp(w *workload, seed int64, dir string, tr *tracer) (*cluster, []*client.Client, *loadgen, error) {
	c, err := newCluster(w, dir, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	clients := make([]*client.Client, w.clients)
	fail := func(err error) (*cluster, []*client.Client, *loadgen, error) {
		tearDown(c, clients)
		return nil, nil, nil, err
	}
	for i := range clients {
		if clients[i], err = c.dial(i); err != nil {
			return fail(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			_, errs[i] = cl.Put(ctx, fmt.Sprintf("ready-%d", i), []byte{})
		}(i, cl)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("client %d: first commit: %w", i, err))
		}
	}
	g := newLoadgen(w, seed, clients, tr)
	if w.preload {
		if err := g.preload(); err != nil {
			return fail(err)
		}
	}
	return c, clients, g, nil
}

// runGated is the untraced run behind the end-to-end metrics: the
// workload set up setupRounds times and measured for d. A workload with
// episodes measures d/episodes on each of that many fresh clusters, one
// set-up apiece: setup_s is the median over the episodes, every other
// metric its better quartile (with eight episodes the second best value:
// up to six disturbed episodes do not move it, and one lucky episode
// does not either), and the operation counts are sums.
func runGated(w *workload, seed int64, d time.Duration, dataDir string) (*runResult, error) {
	if w.episodes <= 1 {
		return runOnce(w, seed, d, false, dataDir, setupRounds)
	}
	total := &runResult{e2e: map[string]float64{}}
	values := map[string][]float64{}
	for i := 0; i < w.episodes; i++ {
		res, err := runOnce(w, seed, d/time.Duration(w.episodes), false, dataDir, 1)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", i, err)
		}
		total.violations = append(total.violations, res.violations...)
		total.attempted += res.attempted
		total.failed += res.failed
		total.puts += res.puts
		total.gets += res.gets
		fmt.Fprintf(os.Stderr, "# bench: %s: episode %d:", w.name, i)
		for _, m := range endToEnd {
			values[m.name] = append(values[m.name], res.e2e[m.name])
			fmt.Fprintf(os.Stderr, " %s=%.4f", m.name, res.e2e[m.name])
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, m := range endToEnd {
		if m.name == "setup_s" {
			total.e2e[m.name] = medianOf(values[m.name])
		} else {
			total.e2e[m.name] = betterQuartile(values[m.name], m.better)
		}
	}
	return total, nil
}

// betterQuartile is the value a quarter of the way from the best of v
// to the worst: of eight values the second best.
func betterQuartile(v []float64, better string) float64 {
	s := slices.Sorted(slices.Values(v))
	if better == "higher" {
		slices.Reverse(s)
	}
	return s[(len(s)-1)/4]
}

func tearDown(c *cluster, clients []*client.Client) {
	for _, cl := range clients {
		if cl != nil {
			cl.Close() // reports only that it was already closed
		}
	}
	c.close()
}

// runOnce sets the workload up at least rounds times (keeping the last), runs it
// for d with or without the tracing decorators, checks the outputs and
// tears everything down. A traced run also fills in the per-layer
// metrics. So does every run of lan3_crash, which is never traced: its
// layer numbers are Status() deltas and the fault schedule's own
// observations, taken from the one full-length run.
func runOnce(w *workload, seed int64, d time.Duration, traced bool, dataDir string, rounds int) (*runResult, error) {
	res := &runResult{e2e: map[string]float64{}}
	layers := traced || w.crash
	var tr *tracer
	if traced {
		origins := make([]types.ReplicaID, w.clients)
		for i := range origins {
			origins[i] = types.ReplicaID(i)
		}
		tr = newTracer(w.replicas, origins)
	}

	var c *cluster
	var clients []*client.Client
	var g *loadgen
	var setups []float64
	began := time.Now()
	// A set-up that takes milliseconds (the LAN workloads': dials and one
	// CLOCKTIME tick) is repeated beyond the minimum until the rounds
	// have taken setupFill, so its median is as steady as a slow one's.
	for i := 0; i < rounds || (rounds > 1 && i < maxSetupRounds && time.Since(began) < setupFill); i++ {
		if c != nil {
			tearDown(c, clients)
		}
		start := time.Now()
		var err error
		c, clients, g, err = setUp(w, seed, filepath.Join(dataDir, fmt.Sprintf("%s-%d", w.name, i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { tearDown(c, clients) }()
	res.e2e["setup_s"] = medianOf(setups)

	// The window's edges are fixed before the load starts, so the
	// snapshots, the fault schedule and the generator agree on them.
	launch := time.Now()
	t0, t1 := launch.Add(w.warmUp()), launch.Add(w.warmUp()+d)
	var before, after snapshot
	var faults *faultReport
	var inflight struct{ rpc, node int64 }
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		time.Sleep(time.Until(t0))
		if tr != nil {
			tr.reset()
		}
		before = c.take(layers)
		if layers {
			// Peak in-flight depth is not a counter anywhere; sample it.
			for time.Now().Before(t1) {
				var rpcNow, nodeNow int64
				for _, r := range c.live() {
					rpcNow += r.srv.Counters().InFlight
					for _, gs := range r.host.Status().Groups {
						nodeNow += int64(gs.InFlight)
					}
				}
				inflight.rpc, inflight.node = max(inflight.rpc, rpcNow), max(inflight.node, nodeNow)
				time.Sleep(20 * time.Millisecond)
			}
		}
		time.Sleep(time.Until(t1))
		after = c.take(layers)
	}()
	if w.crash {
		side.Add(1)
		go func() {
			defer side.Done()
			faults = runFaults(c, t0, d)
		}()
	}
	g.run(launch, d)
	side.Wait()
	if faults != nil && faults.err != nil {
		return nil, faults.err
	}

	// Merge what the issuers recorded.
	var put, get, late stats.Sample
	var lastEnd time.Duration
	var ops []opRec
	for _, rec := range g.recs {
		put.Merge(&rec.put)
		get.Merge(&rec.get)
		late.Merge(&rec.late)
		lastEnd = max(lastEnd, rec.lastEnd)
		ops = append(ops, rec.ops...)
		res.attempted += rec.attempted
		res.failed += rec.failed
		res.violations = append(res.violations, rec.violations...)
	}
	res.puts, res.gets = put.Count(), get.Count()
	completed, writes := float64(res.attempted-res.failed), float64(res.puts)
	if res.puts == 0 || completed == 0 {
		return nil, fmt.Errorf("no PUT completed in the measured window")
	}
	res.e2e["commit_p50_ms"] = ms(put.Quantile(0.50))
	res.e2e["commit_p99_ms"] = ms(put.Quantile(0.99))
	// Goodput is the window's completed work over the time it took to
	// complete: from the window opening to the last of its requests
	// returning.
	res.e2e["goodput_ops_s"] = completed / lastEnd.Seconds()

	var hop stats.Sample
	if layers {
		hop = measureHop(clients[0], g.keys[0])
	}
	violations, skew := checkState(c, g)
	res.violations = append(res.violations, violations...)
	// Open item 1's link-gap storm is reported on every run, not hidden.
	var gaps, epochs uint64
	for _, gs := range c.live()[0].host.Status().Groups {
		gaps, epochs = gaps+gs.LinkGaps, epochs+uint64(gs.Epoch)
	}
	fmt.Fprintf(os.Stderr, "# bench: %s: replica 0 saw %d link gaps and %d epoch changes since start; apply counters %d apart\n", w.name, gaps, epochs, skew)
	if !layers {
		return res, nil
	}

	// ---- per-layer metrics ----
	L := map[string]float64{}
	res.layer = L
	for _, m := range perLayer {
		L[m.name] = 0
	}
	window := after.at.Sub(before.at).Seconds()
	L["client.read_p50_ms"], L["client.read_p99_ms"] = ms(get.Quantile(0.50)), ms(get.Quantile(0.99))
	L["client.failed_share"] = float64(res.failed) / float64(res.attempted)
	if res.failed == 0 && res.e2e["commit_p99_ms"] < latencyLimitMs {
		L["client.limit_met"] = 1
	}
	L["loadgen.late_p99_ms"] = ms(late.Quantile(0.99))
	L["kvstore.applied_skew"] = float64(skew)

	if tr != nil {
		res.spans = tr.seamMetrics(L, completed, writes, window)
	}
	L["storage.bytes_per_op"] = float64(after.logBytes-before.logBytes) / writes
	wire := after.wire
	if fl := wire.Flushes - before.wire.Flushes; fl > 0 {
		L["transport.frames_per_flush"] = float64(wire.Frames-before.wire.Frames) / float64(fl)
		L["transport.flushes_per_op"] = float64(fl) / completed
	}
	L["transport.multi_group_flushes"] = float64(wire.MultiGroupFlushes - before.wire.MultiGroupFlushes)
	L["transport.inbound_drops"] = float64(wire.InboundDrops - before.wire.InboundDrops)

	// Status deltas. A restarted replica starts its counters at zero, so
	// a negative delta is clamped to the end value.
	delta := func(get func(gs node.GroupStatus) uint64) float64 {
		start := map[[2]int]uint64{}
		for _, hs := range before.status {
			for _, gs := range hs.Groups {
				start[[2]int{int(hs.ID), int(gs.Group)}] = get(gs)
			}
		}
		var sum uint64
		for _, hs := range after.status {
			for _, gs := range hs.Groups {
				if e, s := get(gs), start[[2]int{int(hs.ID), int(gs.Group)}]; e >= s {
					sum += e - s
				} else {
					sum += e
				}
			}
		}
		return float64(sum)
	}
	L["core.link_gaps"] = delta(func(gs node.GroupStatus) uint64 { return gs.LinkGaps })
	L["core.held_dropped"] = delta(func(gs node.GroupStatus) uint64 { return gs.HeldDropped })
	L["node.reads_parked"] = delta(func(gs node.GroupStatus) uint64 { return gs.ReadsParked })
	L["node.reads_local"] = delta(func(gs node.GroupStatus) uint64 { return gs.ReadsLocal })
	// Epochs advance in lockstep across replicas; count replica 0's.
	for i, gs := range after.status[0].Groups {
		L["core.epoch_bumps"] += float64(gs.Epoch - before.status[0].Groups[i].Epoch)
	}
	var latSum time.Duration
	var latN int
	for _, hs := range after.status[:w.clients] {
		for _, gs := range hs.Groups {
			if gs.CommitLatency.Samples > 0 {
				latSum += gs.CommitLatency.Mean
				latN++
			}
		}
	}
	if latN > 0 {
		L["node.commit_sample_mean_us"] = float64(latSum.Microseconds()) / float64(latN)
	}
	L["node.inflight_max"], L["rpc.inflight_max"] = float64(inflight.node), float64(inflight.rpc)
	for i, rc := range after.rpc {
		L["rpc.shed"] += float64(rc.Shed - before.rpc[i].Shed)
	}
	L["rpc.hop_p50_us"] = us(hop.Quantile(0.50))

	L["proc.cpu_us_per_op"] = float64((after.cpu - before.cpu).Microseconds()) / completed
	L["proc.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / completed
	L["proc.alloc_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / completed
	L["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	L["proc.peak_rss_mb"] = peakRSSMB()

	if w.sites != nil {
		for i, site := range w.sites {
			lat := &g.recs[i].put
			model := ms(analysis.ClockRSMBalanced(c.matrix, types.ReplicaID(i)))
			L["site."+site.String()+".commit_p50_ms"] = ms(lat.Quantile(0.50))
			L["site."+site.String()+".commit_p99_ms"] = ms(lat.Quantile(0.99))
			L["analysis."+site.String()+".model_ms"] = model
			L["analysis."+site.String()+".gap_ms"] = ms(lat.Quantile(0.50)) - model
		}
	}

	if faults != nil {
		var out, rejoin []float64
		for _, o := range outages(faults.cycles, ops) {
			out = append(out, float64(o)/1e6)
		}
		for _, cy := range faults.cycles {
			rejoin = append(rejoin, float64(cy.rejoinedAt.Sub(cy.restartAt))/1e6)
			L["fault.lost_unsynced_entries"] += float64(cy.lostEntries)
		}
		sort.Float64s(out)
		sort.Float64s(rejoin)
		if len(out) > 0 {
			L["fault.outage_ms"], L["fault.outage_min_ms"], L["fault.outage_max_ms"] = medianOf(out), out[0], out[len(out)-1]
			for _, o := range out {
				if o > 1.5*float64(w.suspect.Milliseconds()) {
					L["fault.double_timeout_cycles"]++
				}
			}
		}
		if len(rejoin) > 0 {
			L["fault.rejoin_ms"], L["fault.rejoin_max_ms"] = medianOf(rejoin), rejoin[len(rejoin)-1]
		}
		L["fault.snap_restores"] = float64(faults.snapRestores)
	}
	return res, nil
}

// measureHop times GetStale round trips on an idle cluster: the front
// door and a local read, no replication.
func measureHop(cl *client.Client, key string) stats.Sample {
	var out stats.Sample
	for i := 0; i < 2000; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		t0 := time.Now()
		_, err := cl.GetStale(ctx, key, 0)
		cancel()
		if err == nil {
			out.Add(time.Since(t0))
		}
	}
	return out
}

// ---- small statistics helpers ----

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
