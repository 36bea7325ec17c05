// Command bench is the repository's benchmark: four named workloads run
// through the real stack (client -> rpc -> node.Host -> core -> transport
// -> storage) in one process, a correctness gate on every run, four
// gated end-to-end metrics and a per-layer breakdown measured from
// outside by timing decorators at the runtime's seams. See README.md.
//
// Three ways to run it:
//
//	bench -seed 1                          every workload, untraced then traced, full report
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                       one run; the last line of standard output is
//	                                       the JSON result BENCHMARK.json's contract asks for
//	bench -selfcheck                       two interleaved sets on the same tree (noise floor)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	selfcheck bool
	manifest  bool
	dir       string
	// out is where trace files go: bench/out from the checkout root, out
	// from inside bench.
	out string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the JSON result line (default: all, full report)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for key choice, op mix and value bytes")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced one")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two interleaved sets of every workload and compare their medians against the bounds")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as declared in spec.go and exit")
	flag.StringVar(&o.dir, "dir", ".bench_build/data", "directory for the replicas' logs (a real filesystem, or lan3_g4_mixed measures no disk)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.manifest {
		os.Stdout.Write(manifest())
		return
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	o.out = "out"
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		o.out = filepath.Join("bench", "out")
	}
	// Each process gets its own data directory, so two runs never share
	// log files.
	o.dir = filepath.Join(o.dir, fmt.Sprint(os.Getpid()))
	code := run(o)
	os.RemoveAll(o.dir) // scratch data; a leftover is only clutter
	os.Exit(code)
}

func run(o options) int {
	env := stampEnv(o)
	switch {
	case o.selfcheck:
		env.print(os.Stdout)
		return selfcheck(o)
	case o.workload == "":
		env.print(os.Stdout)
		return fullReport(o)
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	env.print(os.Stderr)
	d := time.Duration(o.seconds) * time.Second
	var res *runResult
	var err error
	if o.trace == 0 {
		res, err = runGated(w, o.seed, d, o.dir)
	} else {
		res, err = runLayers(w, o.seed, d, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return emit(res, o.trace != 0)
}

// runLayers is the per-layer run: half the time untraced as the
// reference, half with the decorators installed, then the micro loops
// with the cluster down. lan3_crash is one full-length run instead.
func runLayers(w *workload, seed int64, d time.Duration, o options) (*runResult, error) {
	if w.crash {
		return layerRun(w, seed, d, 1, nil, o)
	}
	ref, err := runOnce(w, seed, tracedWindow(w, d), false, o.dir, 1)
	if err != nil {
		return nil, err
	}
	res, err := layerRun(w, seed, tracedWindow(w, d), 1, ref, o)
	if err != nil {
		return nil, err
	}
	res.attempted += ref.attempted
	res.failed += ref.failed
	res.violations = append(res.violations, ref.violations...)
	return res, nil
}

// tracedWindow is how long the traced run of a run of length d measures,
// and its untraced reference: half of d, or one episode where the
// workload has them, so the layers are measured over the stretch of a
// cluster's life the end-to-end metrics come from.
func tracedWindow(w *workload, d time.Duration) time.Duration {
	if w.episodes > 1 {
		return d / time.Duration(w.episodes)
	}
	return d / 2
}

// manifest renders BENCHMARK.json from the declarations in spec.go.
func manifest() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gatedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var m struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []gatedJSON    `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}
	m.Command, m.Paths, m.RunSeconds = []string{"sh", "bench/run.sh"}, []string{"bench"}, runSeconds
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, gatedJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(b, '\n')
}

// jsonMetric and jsonResult are the result line's shape.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints a run's metrics by name and unit (the per-layer ones if
// layers, else the end-to-end ones), then the JSON result as the last
// line. A run that fails the correctness gate prints its violations and
// no metrics, and the exit code is 1.
func emit(res *runResult, layers bool) int {
	out := jsonResult{Correct: len(res.violations) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	decls, values := endToEnd, res.e2e
	if layers {
		decls, values = perLayer, res.layer
	}
	if out.Correct {
		for _, m := range decls {
			fmt.Printf("%-34s %14.4f %s\n", m.name, values[m.name], m.unit)
			out.Metrics[m.name] = jsonMetric{Value: values[m.name], Unit: m.unit}
		}
	} else {
		for _, v := range res.violations {
			fmt.Fprintln(os.Stderr, "bench: correctness violation:", v)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err) // a NaN metric: a bug here
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
