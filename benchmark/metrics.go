package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric with its unit and direction. The tables
// below are the Go side of BENCHMARK.json; bench_test.go keeps the two in
// step, and -compare reads the bounds from the JSON so they live once.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees. An "op" is the workload's
// unit of work: one simulated microsecond (tree_beacon, fattree8_audit,
// tree_serve), one grid point (campaign_mix), one served read
// (serve_reads). Every workload reports every metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ns", "ns", "lower"},
	{"op_p99_ns", "ns", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer is reported by the traced run. The first block depends on the
// workload being run (0 where a layer takes no part in it); the rest are
// probes and differentials that read the same on every workload.
var perLayer = []metricDef{
	{"sim.events_per_sim_s", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"core.ns_per_event", "ns", "lower"},
	{"core.max_offset_ticks", "ticks", "lower"},
	{"core.bound_ticks", "ticks", "lower"},
	{"audit.pair_checks", "count", "higher"},
	{"timesvc.eps_p50_ps", "ps", "lower"},
	{"timesvc.eps_p99_ps", "ps", "lower"},
	{"timesvc.sim_reads", "count", "higher"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.harness_share", "ratio", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},

	{"host.calib_ns", "ns", "lower"},
	{"sim.ns_per_event.pop32", "ns", "lower"},
	{"sim.ns_per_event.pop4096", "ns", "lower"},
	{"sim.heap_ns_per_event.pop4096", "ns", "lower"},
	{"sim.cancel_ns", "ns", "lower"},
	{"core.ns_per_beacon", "ns", "lower"},
	{"core.events_per_beacon", "count", "lower"},
	{"core.init_us_per_link", "us", "lower"},
	{"core.new_ms.fattree8", "ms", "lower"},
	{"core.allocs_per_sim_ms", "count", "lower"},
	{"core.hardened_overhead_ratio", "ratio", "lower"},
	{"core.max_pairwise_offset_us.fattree8", "us", "lower"},
	{"phy.encode_ns_per_block", "ns", "lower"},
	{"phy.decode_ns_per_block", "ns", "lower"},
	{"phy.scramble_ns_per_block", "ns", "lower"},
	{"phy.msg_embed_extract_ns", "ns", "lower"},
	{"phy.fragment_assemble_ns", "ns", "lower"},
	{"link.send_block_ns.ber0", "ns", "lower"},
	{"link.send_block_ns.ber1e-6", "ns", "lower"},
	{"xo.counter_at_ns", "ns", "lower"},
	{"xo.wander_overhead_ratio", "ratio", "lower"},
	{"fabric.load_overhead_ratio", "ratio", "lower"},
	{"topo.build_ms.fattree8", "ms", "lower"},
	{"topo.hops_ms.fattree8", "ms", "lower"},
	{"topo.hopswith_ms.fattree8", "ms", "lower"},
	{"audit.ns_per_pair_check", "ns", "lower"},
	{"audit.wall_share.fattree8", "ratio", "lower"},
	{"audit.analyze_ms_per_kevent", "ms", "lower"},
	{"telemetry.counter_add_ns", "ns", "lower"},
	{"telemetry.hist_observe_ns", "ns", "lower"},
	{"telemetry.striped_observe_ns", "ns", "lower"},
	{"telemetry.tracer_record_ns", "ns", "lower"},
	{"telemetry.prom_write_ms", "ms", "lower"},
	{"telemetry.sim_overhead_ratio", "ratio", "lower"},
	{"telemetry.firehose_overhead_ratio", "ratio", "lower"},
	{"telemetry.timeline_overhead_ratio", "ratio", "lower"},
	{"telemetry.trace_dropped", "count", "lower"},
	{"discipline.feed_ns.ma", "ns", "lower"},
	{"discipline.feed_ns.pll", "ns", "lower"},
	{"discipline.feed_ns.theilsen", "ns", "lower"},
	{"discipline.feed_ns.lad", "ns", "lower"},
	{"daemon.overhead_ratio", "ratio", "lower"},
	{"daemon.estimate_ns", "ns", "lower"},
	{"timesvc.publish_ns", "ns", "lower"},
	{"timesvc.store_read_ns", "ns", "lower"},
	{"timesvc.now_interval_ns", "ns", "lower"},
	{"timesvc.read_writer_slowdown_ratio", "ratio", "lower"},
	{"timesvc.attr_overhead_ratio", "ratio", "lower"},
	{"timesvc.plane_overhead_ratio", "ratio", "lower"},
	{"timesvc.health_handler_us", "us", "lower"},
	{"chaos.load_us", "us", "lower"},
	{"chaos.overhead_ratio", "ratio", "lower"},
	{"campaign.point_ms.storm", "ms", "lower"},
	{"campaign.point_ms.liar", "ms", "lower"},
	{"campaign.jobs2_speedup", "ratio", "higher"},
	{"campaign.merge_ms", "ms", "lower"},
	{"campaign.expand_us", "us", "lower"},
}

// exactNames are the workload-scoped per-layer metrics that come out of
// the simulator, not the host clock: same -seed, same value, on any box.
// They are computed over the fidelity window in traced and untraced runs
// alike and stored beside the digest so -compare can demand equality.
var exactNames = []string{
	"sim.events_per_sim_s", "core.max_offset_ticks", "core.bound_ticks",
	"audit.pair_checks", "timesvc.eps_p50_ps", "timesvc.eps_p99_ps",
	"timesvc.sim_reads",
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one run of one workload produced. The driver
// reads only the last stdout line (correct, attempted, failed, metrics);
// the rest feeds -compare and the README's environment table.
type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// HostSpeed is the median factor the end-to-end timings were divided
	// by: how much slower than nominal the host ran the reference loop.
	HostSpeed float64            `json:"host_speed"`
	Digest    string             `json:"digest"`
	Exact     map[string]float64 `json:"exact"`
	Samples   map[string]int     `json:"samples"`
	EndToEnd  map[string]value   `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
}

// environment is recorded with every results file: two records are only
// comparable when these agree (host.calib_ns normalises the rest).
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

type resultsFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func currentEnv() environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     headCommit(),
	}
}

// headCommit reads .git by hand (the driver's checkout is not a git
// repository and the benchmark starts no helper processes).
func headCommit() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(b))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		if b, err = os.ReadFile(filepath.Join(".git", ref)); err != nil {
			return "unknown"
		}
		head = strings.TrimSpace(string(b))
	}
	return head
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// driverLine is the contract's last stdout line: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func (r *runRecord) driverLine() string {
	m := r.EndToEnd
	if r.Trace {
		m = r.PerLayer
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
	if err != nil {
		panic(err) // NaN or Inf in a metric is a bug in the benchmark
	}
	return string(b)
}

// print lists every metric by name with its unit, then the digest.
func (r *runRecord) print() {
	show := func(title string, defs []metricDef, m map[string]value) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("-- %s %s (seed %d)\n", r.Workload, title, r.Seed)
		for _, d := range defs {
			v := m[d.Name]
			fmt.Printf("%-40s %18s %s\n", d.Name, strconv.FormatFloat(v.Value, 'g', 8, 64), v.Unit)
		}
	}
	show("end-to-end", endToEnd, r.EndToEnd)
	show("per-layer", perLayer, r.PerLayer)
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("samples.%-32s %18d count\n", k, r.Samples[k])
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-40s %18g ratio (%d failed of %d)\n", "failed_ops_share", share, r.Failed, r.Attempted)
	fmt.Printf("%-40s %18g ratio (end-to-end timings are in reference time: wall ÷ this)\n", "host_speed", r.HostSpeed)
	fmt.Printf("%-40s %s\n", "digest", r.Digest)
	for _, f := range r.Failures {
		fmt.Printf("FAIL %s: %s\n", r.Workload, f)
	}
}
