package main

import (
	"fmt"
	"time"

	"clockrsm/internal/wan"
)

// workload is one fixed set of inputs. Names are referred to by later
// issues and by BENCHMARK.json; nothing here is tunable from the
// command line except the seed and the measured duration.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// delay states the message delay injected between replicas, for the
	// environment stamp.
	delay string

	// sites, when set, places one replica per site over the in-process
	// hub with the EC2 one-way delays of Table III; otherwise the
	// replicas talk loopback TCP with no injected delay.
	sites    []wan.Site
	replicas int
	groups   int
	fileLog  bool
	// Failure-detector settings; zero leaves kvserver's defaults
	// (detector off, consensus package retry).
	suspect         time.Duration
	consensusRetry  time.Duration
	checkpointEvery int

	// clients is the number of front-door connections; client c talks
	// to replica c. open selects an open loop at rate requests per
	// second per client (latency timed from the due time); otherwise
	// each connection carries callers closed-loop callers.
	clients int
	open    bool
	rate    int
	callers int

	valueSize int
	// keys is the size of the key space: per client for the open loops
	// (walked in a seeded order, so no key has two writes in flight),
	// shared and Zipf(zipf)-distributed for the closed loops.
	keys      int
	zipf      float64
	readShare float64
	preload   bool

	// crash runs the fault schedule of fault.go against the last
	// replica.
	crash bool

	// episodes, when above 1, splits the warm-up and the measured time of
	// an end-to-end run over that many fresh clusters and reports each
	// metric's better quartile over them (runGated).
	episodes int
}

var workloads = []*workload{
	{
		name:  "wan5_put",
		why:   "paper's flagship: 5 sites over the EC2 delay matrix, open loop; latency is set by the message pattern and stability wait, so protocol changes move it and CPU work must not",
		delay: "transport.Hub one-way delays of Table III (38.5-140 ms), codec on",
		sites: []wan.Site{wan.CA, wan.VA, wan.IR, wan.JP, wan.SG}, replicas: 5, groups: 1, fileLog: true,
		clients: 5, open: true, rate: 200, valueSize: 64, keys: 1000,
	},
	{
		name:     "lan3_put_mem",
		why:      "CPU-bound hot path (rpc, node loop, core cascade, msg codec, transport coalescer) with storage out of the picture: 3 replicas on loopback TCP, NullLog, closed loop 2x32 callers",
		delay:    "none (loopback TCP): latency is processor time only",
		replicas: 3, groups: 1,
		clients: 2, callers: 32, valueSize: 100, keys: 10000, zipf: 1.1,
	},
	{
		name:     "lan3_g4_mixed",
		why:      "same layers used differently: 4 groups, FileLog fsync=batch, 50% PUT / 50% linearizable GET on Zipf keys, so a write gain that costs reads (or the reverse) shows; carries Open item 1's link-gap storm",
		delay:    "none (loopback TCP): latency is processor and disk time",
		replicas: 3, groups: 4, fileLog: true,
		clients: 2, callers: 32, valueSize: 100, keys: 10000, zipf: 1.1, readShare: 0.5, preload: true,
		// kvserver's default is no checkpoints, so the log only grows, and
		// the storm costs more the longer it is: one 24 s window ends at a
		// quarter of the rate it began with, sooner or later from run to
		// run (p50 spread 9-29%). Eight clusters measured over the same
		// first 3 s repeat, but the storm, or a neighbour on the host's
		// disk, still halves the rate of two to five episodes of a run, so
		// their median falls on either side of the divide. The better
		// quartile (the second best) does not: over thirty runs p50 4%, p99
		// 11%, goodput 4%. (With -checkpoint
		// 1024 the rate stays level, but one run in two then has writes
		// fail behind a reconfiguration that waits out the 2 s consensus
		// retry.)
		episodes: 8,
	},
	{
		name:     "lan3_crash",
		why:      "failure mode specific to Clock-RSM: any silent replica freezes the stability watermark until reconfigured out; open loop so requests due during the stall are counted",
		delay:    "none (loopback TCP)",
		replicas: 3, groups: 1, fileLog: true,
		suspect: 500 * time.Millisecond, consensusRetry: 25 * time.Millisecond, checkpointEvery: 1024,
		clients: 2, open: true, rate: 100, valueSize: 64, keys: 1000,
		crash: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmup is the workload's own load run and discarded before the
// measured window opens. It is not part of setup_s: a fixed sleep would
// only dilute that metric. A variable so the smoke test can shorten it.
var warmup = 1500 * time.Millisecond

// warmUp is the warm-up on one cluster of w: episodes split it as they
// split the measured time (each cluster has just taken the preload).
func (w *workload) warmUp() time.Duration {
	return warmup / time.Duration(max(w.episodes, 1))
}

// Fixed run parameters.
const (
	// opTimeout is how long an operation may take before it counts as
	// failed.
	opTimeout = 10 * time.Second
	// latencyLimitMs is the p99 latency limit on wan5_put (worst-site
	// model 171 ms); a failed op also misses it.
	latencyLimitMs = 200.0
	// setupRounds is how many times a run sets the cluster up at least,
	// maxSetupRounds at most, and setupFill the time cheap set-ups are
	// repeated for; setup_s is the median.
	setupRounds    = 5
	maxSetupRounds = 50
	setupFill      = 500 * time.Millisecond
)

// runSeconds is the measured length of one run under the benchmark
// driver, and the default of -seconds.
const runSeconds = 24

// metricDecl declares one metric. BENCHMARK.json is generated from
// these declarations (bench -manifest) and TestManifestMatches asserts
// the committed file still equals them.
type metricDecl struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the gated metrics. The driver's manifest has one list,
// which every untraced run prints in full, with one bound per metric
// of at most 25% that the run-to-run spread on every workload must stay
// within. So a gated metric is defined, never 0 and steady on all four
// workloads, and its bound is set by the noisiest of them (README.md,
// "Noise floor"). Six of the issue's ten metrics cannot meet that and
// are per-layer metrics here: read_p50_ms, read_p99_ms, outage_ms and
// rejoin_ms exist on one workload each; failed_share is 0 by design (it
// is the result line's failed/attempted, which the driver reads on
// every run); cpu_us_per_op spreads 24% on wan5_put.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "commit_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "commit_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "goodput_ops_s", unit: "1/s", better: "higher", bound: 0.25},
}

// perLayer lists the ungated metrics; README.md says what each should
// move. The per-site ones of wan5_put are appended by init.
var perLayer = []metricDecl{
	// Client-visible figures of one workload each.
	{name: "client.read_p50_ms", unit: "ms", better: "lower"},
	{name: "client.read_p99_ms", unit: "ms", better: "lower"},
	{name: "client.failed_share", unit: "ratio", better: "lower"},
	{name: "client.limit_met", unit: "bool", better: "higher"},
	{name: "fault.outage_ms", unit: "ms", better: "lower"},
	{name: "fault.rejoin_ms", unit: "ms", better: "lower"},

	// Stage spans per PUT; means over the complete spans of the traced
	// run, so the six sum to the mean traced latency.
	{name: "stage.ingress_us", unit: "us", better: "lower"},
	{name: "stage.sync_us", unit: "us", better: "lower"},
	{name: "stage.replicate_us", unit: "us", better: "lower"},
	{name: "stage.stable_us", unit: "us", better: "lower"},
	{name: "stage.apply_us", unit: "us", better: "lower"},
	{name: "stage.egress_us", unit: "us", better: "lower"},
	{name: "stage.unattributed_us", unit: "us", better: "lower"},

	{name: "rpc.wire_ns_per_req", unit: "ns", better: "lower"},
	{name: "rpc.wire_allocs_per_req", unit: "count", better: "lower"},
	{name: "rpc.hop_p50_us", unit: "us", better: "lower"},
	{name: "rpc.shed", unit: "count", better: "lower"},
	{name: "rpc.inflight_max", unit: "count", better: "lower"},

	{name: "node.commit_sample_mean_us", unit: "us", better: "lower"},
	{name: "node.reads_parked", unit: "count", better: "lower"},
	{name: "node.reads_local", unit: "count", better: "higher"},
	{name: "node.inflight_max", unit: "count", better: "lower"},

	{name: "core.link_gaps", unit: "count", better: "lower"},
	{name: "core.epoch_bumps", unit: "count", better: "lower"},
	{name: "core.held_dropped", unit: "count", better: "lower"},
	{name: "core.sim_ns_per_cmd", unit: "ns", better: "lower"},

	{name: "msg.encode_ns", unit: "ns", better: "lower"},
	{name: "msg.decode_ns", unit: "ns", better: "lower"},
	{name: "msg.encode_allocs", unit: "count", better: "lower"},
	{name: "msg.decode_allocs", unit: "count", better: "lower"},
	{name: "msg.prepare_bytes", unit: "B", better: "lower"},

	{name: "transport.msgs_per_op", unit: "count", better: "lower"},
	{name: "transport.bytes_per_op", unit: "B", better: "lower"},
	{name: "transport.send_busy_ns_per_op", unit: "ns", better: "lower"},
	{name: "transport.oneway_p50_us", unit: "us", better: "lower"},
	{name: "transport.oneway_p99_us", unit: "us", better: "lower"},
	{name: "transport.oneway_excess_p50_us", unit: "us", better: "lower"},
	{name: "transport.frames_per_flush", unit: "count", better: "higher"},
	{name: "transport.flushes_per_op", unit: "count", better: "lower"},
	{name: "transport.multi_group_flushes", unit: "count", better: "higher"},
	{name: "transport.inbound_drops", unit: "count", better: "lower"},

	{name: "storage.appends_per_op", unit: "count", better: "lower"},
	{name: "storage.syncs_per_op", unit: "count", better: "lower"},
	{name: "storage.appends_per_sync", unit: "count", better: "higher"},
	{name: "storage.append_ns", unit: "ns", better: "lower"},
	{name: "storage.sync_p50_us", unit: "us", better: "lower"},
	{name: "storage.sync_p99_us", unit: "us", better: "lower"},
	{name: "storage.sync_busy_share", unit: "ratio", better: "lower"},
	{name: "storage.syncs_per_host_per_s", unit: "1/s", better: "lower"},
	{name: "storage.bytes_per_op", unit: "B", better: "lower"},

	{name: "kvstore.apply_ns", unit: "ns", better: "lower"},
	{name: "kvstore.applied_skew", unit: "count", better: "lower"},
	{name: "reshard.lookup_ns", unit: "ns", better: "lower"},
	{name: "clock.now_calls_per_op", unit: "count", better: "lower"},

	{name: "fault.outage_min_ms", unit: "ms", better: "lower"},
	{name: "fault.outage_max_ms", unit: "ms", better: "lower"},
	{name: "fault.double_timeout_cycles", unit: "count", better: "lower"},
	{name: "fault.rejoin_max_ms", unit: "ms", better: "lower"},
	{name: "fault.snap_restores", unit: "count", better: "higher"},
	{name: "fault.lost_unsynced_entries", unit: "count", better: "lower"},

	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.cpu_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
	{name: "trace.complete_share", unit: "ratio", better: "higher"},
}

func init() {
	for _, kind := range []string{"site.%s.commit_p50_ms", "site.%s.commit_p99_ms", "analysis.%s.model_ms", "analysis.%s.gap_ms"} {
		for _, site := range workloads[0].sites {
			perLayer = append(perLayer, metricDecl{name: fmt.Sprintf(kind, site), unit: "ms", better: "lower"})
		}
	}
}
