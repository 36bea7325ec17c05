package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// envStamp records where and on what a report was produced.
type envStamp struct {
	commit, goVersion, kernel string
	nproc, gomaxprocs         int
	dir, fsType               string
	seed                      int64
	seconds                   int
}

func stampEnv(o options) envStamp {
	e := envStamp{
		commit: "unknown", goVersion: runtime.Version(), kernel: "unknown",
		nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0),
		dir: o.dir, fsType: "unknown", seed: o.seed, seconds: o.seconds,
	}
	// Ask git only inside a work tree it can see from here (the checkout
	// root, or bench/ within it): the benchmark driver's checkout has
	// none, and git must not go looking above it.
	for _, dir := range []string{".git", "../.git"} {
		if _, err := os.Stat(dir); err == nil {
			if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
				e.commit = strings.TrimSpace(string(out))
			}
			break
		}
	}
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		var b []byte
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.kernel = string(b)
	}
	var st syscall.Statfs_t
	if os.MkdirAll(o.dir, 0o755) == nil && syscall.Statfs(o.dir, &st) == nil {
		e.fsType = fsName(int64(st.Type))
	}
	return e
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

func (e envStamp) print(w io.Writer) {
	fmt.Fprintf(w, "# bench: commit=%s go=%s nproc=%d GOMAXPROCS=%d kernel=%s seed=%d seconds=%d\n",
		e.commit, e.goVersion, e.nproc, e.gomaxprocs, e.kernel, e.seed, e.seconds)
	fmt.Fprintf(w, "# bench: logs in %s (%s)\n", e.dir, e.fsType)
	if e.fsType == "tmpfs" {
		fmt.Fprintln(w, "# bench: WARNING: THE LOG DIRECTORY IS TMPFS -- fsync is free there, so lan3_g4_mixed, lan3_crash and wan5_put MEASURE NO DISK; pass -dir on a real filesystem")
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "# bench: %-14s injected delay: %s\n", wl.name, wl.delay)
	}
}

// layerRun produces a workload's per-layer metrics from one run of
// length d (traced, except on lan3_crash), the untraced reference run
// when there is one, and the micro loops; it writes the trace file.
func layerRun(w *workload, seed int64, d time.Duration, rounds int, ref *runResult, o options) (*runResult, error) {
	res, err := runOnce(w, seed, d, !w.crash, o.dir, rounds)
	if err != nil {
		return nil, err
	}
	L := res.layer
	if ref != nil {
		L["trace.overhead_pct"] = (res.e2e["commit_p50_ms"] - ref.e2e["commit_p50_ms"]) / ref.e2e["commit_p50_ms"] * 100
	}

	m := runMicro(w, seed, microTime)
	L["rpc.wire_ns_per_req"], L["rpc.wire_allocs_per_req"] = m.rpcNs, m.rpcAllocs
	L["msg.encode_ns"], L["msg.encode_allocs"] = m.encNs, m.encAllocs
	L["msg.decode_ns"], L["msg.decode_allocs"] = m.decNs, m.decAllocs
	L["msg.prepare_bytes"] = m.prepareBytes
	L["core.sim_ns_per_cmd"] = m.simNs
	L["reshard.lookup_ns"] = m.lookupNs
	// The generator's own work as a share of the process's CPU per op.
	L["loadgen.cpu_share"] = m.genNs / 1e3 / L["proc.cpu_us_per_op"]

	if res.spans == nil {
		return res, nil
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(o.out+"/"+w.name+".trace.json", res.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// microTime is how long each micro loop runs.
var microTime = time.Second

// fullReport runs every workload untraced for the end-to-end metrics
// and traced (half as long) for the layers, and prints everything by
// name with its unit. lan3_crash gives both from its one run.
func fullReport(o options) int {
	d := time.Duration(o.seconds) * time.Second
	code := 0
	for _, w := range workloads {
		fmt.Printf("\n== %s ==\n%s\n", w.name, w.why)
		var ref, res *runResult
		var err error
		if w.crash {
			res, err = layerRun(w, o.seed, d, setupRounds, nil, o)
			ref = res
		} else if ref, err = runGated(w, o.seed, d, o.dir); err == nil {
			res, err = layerRun(w, o.seed, tracedWindow(w, d), 1, ref, o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		v := ref.violations
		if res != ref {
			v = append(v, res.violations...)
		}
		if len(v) > 0 {
			for _, s := range v {
				fmt.Fprintf(os.Stderr, "bench: %s: correctness violation: %s\n", w.name, s)
			}
			code = 1
			continue // a violation prints no metrics
		}
		fmt.Printf("correctness gate passed; %ds: %d PUT + %d GETL samples, %d attempted, %d failed", o.seconds, ref.puts, ref.gets, ref.attempted, ref.failed)
		if res != ref {
			fmt.Printf("; traced %.1fs: %d spans -> %s/%s.trace.json", tracedWindow(w, d).Seconds(), int(res.layer["trace.spans"]), o.out, w.name)
		}
		fmt.Println("\n-- end to end (untraced run) --")
		for _, m := range endToEnd {
			fmt.Printf("%-34s %14.4f %s\n", m.name, ref.e2e[m.name], m.unit)
		}
		fmt.Println("-- per layer --")
		for _, m := range perLayer {
			fmt.Printf("%-34s %14.4f %s\n", m.name, res.layer[m.name], m.unit)
		}
		if res != ref && !traceCloses(res.layer) {
			fmt.Printf("TRACE DOES NOT CLOSE: %.1f%% of the traced PUTs have a complete span, and the stages leave %.1f us of the %.1f us mean latency unattributed\n",
				res.layer["trace.complete_share"]*100, res.layer["stage.unattributed_us"], stageSum(res.layer)+res.layer["stage.unattributed_us"])
		}
		if w.open && res.layer["loadgen.late_p99_ms"] > lateLimitMs {
			fmt.Printf("RUN INVALID: the open-loop generator fired %.2f ms late at p99\n", res.layer["loadgen.late_p99_ms"])
		}
		if w.sites != nil && res.layer["client.limit_met"] == 0 {
			fmt.Printf("limit_met=false: p99 %.1f ms against the %.0f ms latency limit\n", res.e2e["commit_p99_ms"], latencyLimitMs)
		}
	}
	return code
}

// lateLimitMs is how late the open-loop generator may fire at p99
// before the report calls the run invalid. Lateness is not hidden by
// the latencies, which are timed from the due time; the limit guards
// against a generator so starved that the offered load is no longer the
// stated one. (Timers on the 2-core box this was written on fire about
// 1.5 ms late at p99 whatever the load.)
const lateLimitMs = 5

// traceCloses reports whether the stage spans account for the traced
// client latency: at least nine spans in ten are complete (every seam
// event seen, in order), and the complete ones' stages come within 10%
// of the mean latency of all of them.
func traceCloses(layer map[string]float64) bool {
	left, span := layer["stage.unattributed_us"], stageSum(layer)
	return layer["trace.complete_share"] >= 0.9 && math.Abs(left) <= 0.10*(span+left)
}

// stageSum is the part of the mean traced latency the six stages cover.
func stageSum(layer map[string]float64) float64 {
	sum := 0.0
	for _, name := range stageNames {
		sum += layer["stage."+name+"_us"]
	}
	return sum
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the benchmark driver's
// definition of spread).
func quartileSpread(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return (q(3) - q(1)) / medianOf(v)
}

// selfcheck is the A/A test: two sets of runs of the same tree, the
// order of sets and workloads alternating, must agree within every
// metric's bound. It prints the observed spread beside each bound.
func selfcheck(o options) int {
	const selfcheckRuns = 5 // per workload per set
	type cell struct{ workload, metric string }
	sets := [2]map[cell][]float64{{}, {}}
	d := time.Duration(o.seconds) * time.Second
	for r := 0; r < selfcheckRuns; r++ {
		order := append([]*workload(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for i := 0; i < 2; i++ {
				set := (i + r) % 2
				res, err := runGated(w, o.seed+int64(r), d, o.dir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if len(res.violations) > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s: correctness violation: %s\n", w.name, res.violations[0])
					return 1
				}
				fmt.Fprintf(os.Stderr, "# round %d set %c %-14s commit_p50_ms=%.3f goodput_ops_s=%.0f\n", r, 'A'+set, w.name, res.e2e["commit_p50_ms"], res.e2e["goodput_ops_s"])
				for _, m := range endToEnd {
					c := cell{w.name, m.name}
					sets[set][c] = append(sets[set][c], res.e2e[m.name])
				}
			}
		}
	}
	fmt.Printf("\n%-14s %-14s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound", "")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := medianOf(sets[0][cell{w.name, m.name}]), medianOf(sets[1][cell{w.name, m.name}])
			diff := math.Abs(a-b) / math.Min(a, b)
			spread := quartileSpread(append(append([]float64(nil), sets[0][cell{w.name, m.name}]...), sets[1][cell{w.name, m.name}]...))
			verdict := "ok"
			if diff > m.bound {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-14s %-14s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%%  %s\n", w.name, m.name, a, b, diff*100, spread*100, m.bound*100, verdict)
		}
	}
	return code
}
