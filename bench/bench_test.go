package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"clockrsm/internal/kvstore"
)

// TestManifestMatches asserts the committed BENCHMARK.json is what
// spec.go declares, so the metric set the program prints and the set
// the manifest promises cannot drift apart.
func TestManifestMatches(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Fatalf("BENCHMARK.json differs from spec.go; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
		if len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("metric %s: name or unit too long", m.name)
		}
	}
}

// TestSmoke runs every workload briefly and asserts the correctness
// gate passes, every declared metric is emitted, the metrics each
// workload exists to show are non-zero, and the stage spans close.
func TestSmoke(t *testing.T) {
	warmup, microTime = 200*time.Millisecond, 10*time.Millisecond
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // two at a time: the open loops mostly wait
			o := options{dir: t.TempDir(), out: t.TempDir()}
			d := time.Second
			if w.crash {
				d = faultLeadIn + cycleLen // one fault cycle
			}
			// The untraced path once; elsewhere the traced run stands in as
			// its own reference.
			var ref *runResult
			if w.name == "lan3_put_mem" {
				var err error
				if ref, err = runOnce(w, 1, d, false, o.dir, 2); err != nil {
					t.Fatal(err)
				}
				check(t, ref, endToEnd, ref.e2e)
			}
			res, err := layerRun(w, 1, d, 1, ref, o)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, endToEnd, res.e2e)
			check(t, res, perLayer, res.layer)

			L := res.layer
			nonZero := []string{"rpc.wire_ns_per_req", "rpc.hop_p50_us", "node.commit_sample_mean_us", "core.sim_ns_per_cmd",
				"msg.encode_ns", "msg.decode_ns", "msg.prepare_bytes", "reshard.lookup_ns", "proc.allocs_per_op", "proc.peak_rss_mb", "loadgen.cpu_share"}
			if !w.crash { // what the decorators measure
				nonZero = append(nonZero, "stage.ingress_us", "stage.replicate_us", "stage.stable_us", "stage.apply_us", "stage.egress_us",
					"trace.spans", "trace.complete_share", "transport.msgs_per_op", "transport.bytes_per_op", "transport.send_busy_ns_per_op",
					"transport.oneway_p50_us", "storage.appends_per_op", "storage.append_ns", "kvstore.apply_ns", "clock.now_calls_per_op")
				if w.fileLog {
					nonZero = append(nonZero, "stage.sync_us", "storage.syncs_per_op", "storage.appends_per_sync", "storage.sync_p50_us",
						"storage.sync_busy_share", "storage.syncs_per_host_per_s")
				}
			}
			if w.fileLog {
				nonZero = append(nonZero, "storage.bytes_per_op")
			}
			if w.sites == nil {
				nonZero = append(nonZero, "transport.frames_per_flush", "transport.flushes_per_op")
			} else {
				for _, s := range w.sites {
					nonZero = append(nonZero, "site."+s.String()+".commit_p50_ms", "analysis."+s.String()+".model_ms")
				}
				// A full run reads about 0.2 ms; the slack is for -race.
				if x := L["transport.oneway_excess_p50_us"]; x > 5000 {
					t.Errorf("one-way delay exceeds the injected matrix entry by %.0f us at the median, want under 5 ms", x)
				}
			}
			if w.open {
				nonZero = append(nonZero, "loadgen.late_p99_ms")
			}
			if w.readShare > 0 {
				nonZero = append(nonZero, "client.read_p50_ms", "client.read_p99_ms", "node.reads_local")
			}
			if w.crash {
				nonZero = append(nonZero, "fault.outage_ms", "fault.outage_max_ms", "fault.rejoin_ms", "core.epoch_bumps")
			}
			for _, name := range nonZero {
				if L[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, L[name])
				}
			}
			if w.name == "lan3_put_mem" {
				if !traceCloses(L) {
					t.Errorf("trace does not close: %.0f%% of the spans complete, %.1f us of a %.1f us mean latency unattributed",
						L["trace.complete_share"]*100, L["stage.unattributed_us"], stageSum(L)+L["stage.unattributed_us"])
				}
				if L["stage.sync_us"] != 0 || L["storage.syncs_per_op"] != 0 {
					t.Errorf("NullLog workload reports sync work: stage.sync_us=%v storage.syncs_per_op=%v", L["stage.sync_us"], L["storage.syncs_per_op"])
				}
			}
		})
	}
}

// check asserts the run passed the correctness gate and that values
// holds exactly the declared metrics, each a finite number.
func check(t *testing.T, res *runResult, decls []metricDecl, values map[string]float64) {
	t.Helper()
	for _, v := range res.violations {
		t.Errorf("correctness violation: %s", v)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	declared := map[string]bool{}
	for _, m := range decls {
		declared[m.name] = true
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s: got %v (present=%t), want a finite number", m.name, v, ok)
		}
		if m.bound > 0 && v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
		}
	}
	for name := range values {
		if !declared[name] {
			t.Errorf("metric %s is emitted but not declared in spec.go", name)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 4, 6, 5, 8, 7, 9}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestBetterQuartile(t *testing.T) {
	v := []float64{7, 1, 8, 3, 2, 6, 5, 4}
	if got := betterQuartile(v, "lower"); got != 2 {
		t.Errorf("lower is better: got %v, want the second lowest, 2", got)
	}
	if got := betterQuartile(v, "higher"); got != 7 {
		t.Errorf("higher is better: got %v, want the second highest, 7", got)
	}
	if got := betterQuartile([]float64{9}, "lower"); got != 9 {
		t.Errorf("one value: got %v, want 9", got)
	}
}

func TestFaultCycles(t *testing.T) {
	w := findWorkload("lan3_crash")
	for _, tc := range []struct {
		d      time.Duration
		cycles int
		stride time.Duration
	}{
		{runSeconds * time.Second, 9, 500 * time.Millisecond / 9},
		{faultLeadIn + cycleLen, 1, 500 * time.Millisecond},
		{time.Second, 0, 0},
	} {
		if n, stride := faultCycles(w, tc.d); n != tc.cycles || stride != tc.stride {
			t.Errorf("faultCycles(%v) = %d, %v; want %d, %v", tc.d, n, stride, tc.cycles, tc.stride)
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	g := newLoadgen(findWorkload("lan3_put_mem"), 1, nil, nil)
	v := make([]byte, 100)
	tag := makeTag(3, 12345, true)
	g.fill(v, tag, 77)
	if valueSeq(v) != 77 || tagClient(tag) != 3 {
		t.Fatalf("seq %d client %d, want 77 and 3", valueSeq(v), tagClient(tag))
	}
	if got, ok := tracedTag(kvstore.Put("some-key", v)); !ok || got != tag {
		t.Fatalf("tracedTag = %x, %t; want %x, true", got, ok, tag)
	}
	g.fill(v, makeTag(3, 12345, false), 78)
	if _, ok := tracedTag(kvstore.Put("some-key", v)); ok {
		t.Fatal("untraced tag reported as traced")
	}
}
