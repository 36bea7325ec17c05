// Command rsmbench regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment prints the same rows or
// series the paper reports; bench/README.md and ROADMAP.md's Performance
// section hold the measured comparison through the real stack.
//
// Usage:
//
//	rsmbench -exp all            # everything, test-scale parameters
//	rsmbench -exp fig1 -full     # Figure 1 with the paper's parameters
//	rsmbench -exp table4         # numerical Table IV (fast, analytic)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"clockrsm/internal/analysis"
	"clockrsm/internal/runner"
	"clockrsm/internal/stats"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2|table3|fig1|fig2|fig3|fig4|fig5|fig6|fig7|table4|fig8|all")
	full := flag.Bool("full", false, "use the paper's full-scale parameters (slower)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	if err := run(*exp, *full, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "rsmbench:", err)
		os.Exit(1)
	}
}

// opts scales simulated experiments.
func opts(full bool, seed int64) runner.FigureOptions {
	if full {
		return runner.FigureOptions{
			ClientsPerReplica: 40,
			Duration:          60 * time.Second,
			Seed:              seed,
			Jitter:            time.Millisecond,
		}
	}
	return runner.FigureOptions{
		ClientsPerReplica: 10,
		Duration:          10 * time.Second,
		Seed:              seed,
		Jitter:            500 * time.Microsecond,
	}
}

func run(exp string, full bool, seed int64) error {
	o := opts(full, seed)
	experiments := map[string]func() error{
		"table2": table2,
		"table3": table3,
		"fig1":   func() error { return figure1(o) },
		"fig2":   func() error { return figure2(o) },
		"fig3": func() error {
			return cdfFigure("Figure 3: latency CDF at JP (5 replicas, leader CA, balanced)", func() ([]runner.CDFSeries, error) { return runner.Figure3(o) })
		},
		"fig4": func() error {
			return cdfFigure("Figure 4: latency CDF at CA (3 replicas, leader VA, balanced)", func() ([]runner.CDFSeries, error) { return runner.Figure4(o) })
		},
		"fig5": func() error { return figure5(o) },
		"fig6": func() error {
			return cdfFigure("Figure 6: latency CDF at SG (5 replicas, leader CA, imbalanced)", func() ([]runner.CDFSeries, error) { return runner.Figure6(o) })
		},
		"fig7":   figure7,
		"table4": table4,
		"fig8":   func() error { return figure8(full) },
	}
	if exp == "all" {
		for _, name := range []string{"table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table4", "fig8"} {
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	f, ok := experiments[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return f()
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func msf(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// table2 prints the analytic latency formulas evaluated on the paper's
// five-replica placement.
func table2() error {
	header("Table II: analytic commit latency (ms) on {CA,VA,IR,JP,SG}")
	sites := runner.FiveSites()
	m := wan.EC2Matrix(sites)
	leader := analysis.BestPaxosLeader(m)
	fmt.Printf("%-8s %12s %12s %14s %14s %14s\n", "replica", "Paxos", "Paxos-bcast", "Mencius-imbal", "Clock-imbal", "Clock-balanced")
	for i, s := range sites {
		id := types.ReplicaID(i)
		mark := "  "
		if id == leader {
			mark = "L "
		}
		fmt.Printf("%s%-6v %12s %12s %14s %14s %14s\n", mark, s,
			msf(analysis.Paxos(m, id, leader)),
			msf(analysis.PaxosBcast(m, id, leader)),
			msf(analysis.MenciusBcastImbalanced(m, id)),
			msf(analysis.ClockRSMImbalanced(m, id)),
			msf(analysis.ClockRSMBalanced(m, id)))
	}
	return nil
}

// table3 prints the embedded EC2 RTT dataset.
func table3() error {
	header("Table III: average round-trip latencies (ms) between EC2 data centers")
	sites := wan.AllSites()
	fmt.Printf("%4s", "")
	for _, b := range sites[1:] {
		fmt.Printf("%6v", b)
	}
	fmt.Println()
	for i, a := range sites[:len(sites)-1] {
		fmt.Printf("%4v", a)
		for range sites[1 : i+1] {
			fmt.Printf("%6s", "-")
		}
		for _, b := range sites[i+1:] {
			fmt.Printf("%6d", wan.EC2RTT(a, b)/time.Millisecond)
		}
		fmt.Println()
	}
	return nil
}

// printBars renders one bar-figure: rows per replica, columns per
// protocol, mean and 95th percentile.
func printBars(sites []wan.Site, bars []runner.Bar) {
	fmt.Printf("%-8s", "replica")
	for _, p := range runner.AllProtocols() {
		fmt.Printf("%26s", string(p)+" mean/p95")
	}
	fmt.Println()
	for _, site := range sites {
		fmt.Printf("%-8v", site)
		for _, p := range runner.AllProtocols() {
			var cell string
			for _, b := range bars {
				if b.Site == site && b.Protocol == p {
					cell = msf(b.Mean) + " / " + msf(b.P95)
				}
			}
			fmt.Printf("%26s", cell)
		}
		fmt.Println()
	}
}

func figure1(o runner.FigureOptions) error {
	for _, leader := range []wan.Site{wan.CA, wan.VA} {
		header(fmt.Sprintf("Figure 1(%s): 5 replicas, balanced, leader at %v (ms)",
			map[wan.Site]string{wan.CA: "a", wan.VA: "b"}[leader], leader))
		bars, err := runner.Figure1(leader, o)
		if err != nil {
			return err
		}
		printBars(runner.FiveSites(), bars)
	}
	return nil
}

func figure2(o runner.FigureOptions) error {
	for _, leader := range []wan.Site{wan.CA, wan.VA} {
		header(fmt.Sprintf("Figure 2(%s): 3 replicas, balanced, leader at %v (ms)",
			map[wan.Site]string{wan.CA: "a", wan.VA: "b"}[leader], leader))
		bars, err := runner.Figure2(leader, o)
		if err != nil {
			return err
		}
		printBars(runner.ThreeSites(), bars)
	}
	return nil
}

func figure5(o runner.FigureOptions) error {
	header("Figure 5: 5 replicas, imbalanced (one serving replica per run), leader CA (ms)")
	bars, err := runner.Figure5(o)
	if err != nil {
		return err
	}
	printBars(runner.FiveSites(), bars)
	return nil
}

// cdfFigure prints latency distribution series at decile resolution.
func cdfFigure(title string, gen func() ([]runner.CDFSeries, error)) error {
	header(title)
	series, err := gen()
	if err != nil {
		return err
	}
	fmt.Printf("%-14s", "protocol")
	for _, q := range []int{10, 25, 50, 75, 90, 95, 99} {
		fmt.Printf("%9s", fmt.Sprintf("p%d", q))
	}
	fmt.Println()
	for _, s := range series {
		fmt.Printf("%-14s", s.Protocol)
		for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99} {
			fmt.Printf("%9s", msf(quantileOf(s.Points, q)))
		}
		fmt.Println()
	}
	return nil
}

// quantileOf reads a quantile off a CDF series.
func quantileOf(points []stats.CDFPoint, q float64) time.Duration {
	for _, p := range points {
		if p.Fraction >= q {
			return p.Latency
		}
	}
	if len(points) > 0 {
		return points[len(points)-1].Latency
	}
	return 0
}

func figure7() error {
	header("Figure 7: average commit latency over all 3/5/7-replica EC2 placements (ms)")
	fmt.Printf("%-10s %8s %18s %18s %18s %18s\n", "replicas", "groups", "Paxos-bcast all", "Clock-RSM all", "Paxos-bcast high", "Clock-RSM high")
	for _, r := range analysis.Figure7() {
		fmt.Printf("%-10d %8d %18s %18s %18s %18s\n", r.Replicas, r.Groups,
			msf(r.PaxosAll), msf(r.ClockAll), msf(r.PaxosHighest), msf(r.ClockHighest))
	}
	return nil
}

func table4() error {
	header("Table IV: latency reduction of Clock-RSM over Paxos-bcast")
	fmt.Printf("%-10s %12s %12s %12s\n", "replicas", "percentage", "abs (ms)", "rel (%)")
	t := analysis.Table4()
	for _, n := range []int{3, 5, 7} {
		for _, row := range t[n] {
			fmt.Printf("%-10d %11.1f%% %12s %11.1f%%\n",
				n, row.Percentage, msf(row.AbsoluteReduction), row.RelativeReduction)
		}
	}
	return nil
}

func figure8(full bool) error {
	header("Figure 8: throughput, 5 replicas, local cluster (kop/s)")
	perRun := 500 * time.Millisecond
	if full {
		perRun = 3 * time.Second
	}
	results, err := runner.Figure8(nil, perRun)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s", "protocol")
	for _, size := range []int{10, 100, 1000} {
		fmt.Printf("%10s", fmt.Sprintf("%dB", size))
	}
	fmt.Println()
	for _, p := range runner.AllProtocols() {
		fmt.Printf("%-14s", p)
		for _, size := range []int{10, 100, 1000} {
			for _, r := range results {
				if r.Protocol == p && r.PayloadSize == size {
					fmt.Printf("%10.1f", r.OpsPerSec/1000)
				}
			}
		}
		fmt.Println()
	}
	return nil
}
