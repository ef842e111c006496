// Command dtptrace is the offline causal analyzer for recorded DTP
// telemetry: it ingests a JSONL protocol trace (dtpsim -trace-out,
// dtpd/dtpsim /trace endpoint) plus an optional Prometheus metrics dump
// and reconstructs what the protocol did — per-port state-machine dwell
// times, the INIT one-way-delay distribution (with an assertion hook
// for the paper's 43–45 cycle range on 10 m cables), Figure 6c style
// beacon-offset tables, counter-jump causality chains, and any bound
// violations the online auditor recorded. Traces from hardened runs
// (dtpsim -hardened) additionally get a Byzantine-defense section: every
// counter_rejected event grouped by port with its advance-vs-allowance
// arithmetic and beacon/join path, each port_quarantined event tied to
// the rejections that triggered it, and the chaos inject/clear markers
// that caused them.
//
// Output is byte-deterministic for a given trace: two runs of the same
// seed through dtpsim produce identical dtptrace reports.
//
// Usage:
//
//	dtpsim -topo tree -duration 200ms -trace-out trace.jsonl -metrics-out m.prom
//	dtptrace -trace trace.jsonl -topo tree -metrics m.prom -assert-owd 43:45
//
// With -bundle it instead validates a flight-recorder bundle
// (dtp-flight/1), prints its summary (reason, trigger time, trace
// window, timeline shape, state sections), warns when the trace ring
// dropped events before the trigger, and runs the same causal analyzer
// over the bundle's embedded trace window:
//
//	dtptrace -bundle flight/flight-1-00-port_demoted.json -topo pair
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/cliutil"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

var (
	// -topo (empty default: skip the jump-chain analysis that needs the
	// recorded topology)
	shared = cliutil.Flags{}

	traceFlag  = flag.String("trace", "", "JSONL trace file to analyze")
	bundleFlag = flag.String("bundle", "", "flight bundle (dtp-flight/1 JSON) to validate, summarize, and analyze; exits 1 if the bundle is invalid")
	metricsIn  = flag.String("metrics", "", "optional Prometheus text dump to summarize")
	owdFlag    = flag.String("assert-owd", "", "fail unless every measured OWD lies in lo:hi port cycles (paper: 43:45 on 10 m cables)")
	topFlag    = flag.Int("top", 5, "causality chains to print")
	windowFlag = flag.Duration("window", 10*time.Microsecond, "max cause-effect gap between chained counter jumps")
)

func main() {
	shared.Register(flag.CommandLine, cliutil.FlagTopo)
	flag.Parse()
	if err := shared.Validate(); err != nil {
		cliutil.Fatal("dtptrace", 2, err)
	}
	if *traceFlag == "" && *bundleFlag == "" {
		fmt.Fprintln(os.Stderr, "dtptrace: -trace or -bundle is required")
		flag.Usage()
		os.Exit(2)
	}

	var g *topo.Graph
	if shared.Topo != "" {
		parsed, err := shared.Topology()
		if err != nil {
			fatal(err)
		}
		g = &parsed
	}

	// Bundle mode: validate the flight bundle, summarize it, and run the
	// causal analyzer over its embedded trace window. Unlike plain trace
	// mode, recorded bound violations do NOT fail the exit status — a
	// bundle exists precisely because something broke; dtptrace's job
	// here is to certify the black box itself is intact and readable.
	if *bundleFlag != "" {
		events, err := summarizeBundle(os.Stdout, *bundleFlag)
		if err != nil {
			fatal(err)
		}
		if len(events) > 0 {
			report := audit.Analyze(events, g, sim.FromStd(*windowFlag))
			if err := report.WriteText(os.Stdout, *topFlag); err != nil {
				fatal(err)
			}
		}
		return
	}

	f, err := os.Open(*traceFlag)
	if err != nil {
		fatal(err)
	}
	events, err := telemetry.ReadJSONL(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	report := audit.Analyze(events, g, sim.FromStd(*windowFlag))
	if err := report.WriteText(os.Stdout, *topFlag); err != nil {
		fatal(err)
	}

	if *metricsIn != "" {
		if err := summarizeMetrics(*metricsIn); err != nil {
			fatal(err)
		}
	}

	if *owdFlag != "" {
		lo, hi, err := parseRange(*owdFlag)
		if err != nil {
			fatal(err)
		}
		mlo, mhi, n := report.OWDRange()
		switch {
		case n == 0:
			fmt.Printf("\nOWD assertion %d..%d: FAIL (no synced events in trace)\n", lo, hi)
			os.Exit(1)
		case mlo < lo || mhi > hi:
			fmt.Printf("\nOWD assertion %d..%d: FAIL (measured %d..%d over %d samples)\n", lo, hi, mlo, mhi, n)
			os.Exit(1)
		default:
			fmt.Printf("\nOWD assertion %d..%d: ok (measured %d..%d over %d samples)\n", lo, hi, mlo, mhi, n)
		}
	}
	if len(report.Violations) > 0 {
		os.Exit(1)
	}
}

// summarizeBundle validates a flight bundle via telemetry.LoadBundle,
// prints a human summary, and returns the embedded trace window for
// causal analysis. A non-zero ring-drop count gets a warning line: the
// trailing window is intact, but chains reaching further back are
// incomplete.
func summarizeBundle(w io.Writer, path string) ([]telemetry.Event, error) {
	b, err := telemetry.LoadBundle(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "== Flight bundle %s\n", filepath.Base(path))
	fmt.Fprintf(w, "schema   %s  seed %d  seq %d\n", b.Schema, b.Seed, b.Seq)
	fmt.Fprintf(w, "reason   %s", b.Reason)
	if b.Detail != "" {
		fmt.Fprintf(w, " (%s)", b.Detail)
	}
	fmt.Fprintf(w, "\ntrigger  t = %.3f ms simulated\n", float64(b.TPs)/1e9)
	var events []telemetry.Event
	if b.Trace != nil {
		fmt.Fprintf(w, "trace    %d events embedded (%d recorded, %d ring-dropped)\n",
			len(b.Trace.Events), b.Trace.Total, b.Trace.Dropped)
		if b.Trace.Dropped > 0 {
			fmt.Fprintf(w, "warning  %d events fell out of the trace ring before the trigger; causal chains may be truncated\n",
				b.Trace.Dropped)
		}
		events = make([]telemetry.Event, len(b.Trace.Events))
		for i, e := range b.Trace.Events {
			events[i], _ = e.Event() // kinds validated by LoadBundle
		}
	}
	if b.Timeline != nil {
		fmt.Fprintf(w, "timeline %d rows x %d columns, sampled every %.3f ms\n",
			len(b.Timeline.Rows), len(b.Timeline.Columns), float64(b.Timeline.IntervalPs)/1e9)
	}
	if b.Metrics != "" {
		fmt.Fprintf(w, "metrics  %d bytes of Prometheus exposition\n", len(b.Metrics))
	}
	if len(b.State) > 0 {
		keys := make([]string, 0, len(b.State))
		for k := range b.State {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "state    %s\n", strings.Join(keys, ", "))
	}
	fmt.Fprintln(w, "bundle   valid")
	return events, nil
}

// parseRange parses "43:45" or "43-45".
func parseRange(s string) (lo, hi int64, err error) {
	sep := ":"
	if !strings.Contains(s, sep) {
		sep = "-"
	}
	a, b, ok := strings.Cut(s, sep)
	if !ok {
		return 0, 0, fmt.Errorf("dtptrace: bad range %q, want lo:hi", s)
	}
	if lo, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("dtptrace: bad range %q: %w", s, err)
	}
	if hi, err = strconv.ParseInt(b, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("dtptrace: bad range %q: %w", s, err)
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("dtptrace: empty range %q", s)
	}
	return lo, hi, nil
}

// summarizeMetrics echoes the dtp_* samples of a Prometheus text dump
// (skipping histogram buckets). WritePrometheus sorts families and
// series, so the echo is deterministic too.
func summarizeMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Println("\n== Metrics summary (dtp_* samples)")
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	shown := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dtp_") || strings.Contains(line, "_bucket{") {
			continue
		}
		fmt.Println(line)
		shown++
	}
	if shown == 0 {
		fmt.Println("no dtp_* samples found")
	}
	return sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtptrace:", err)
	os.Exit(1)
}
