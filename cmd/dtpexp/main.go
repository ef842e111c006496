// Command dtpexp regenerates every table and figure of the paper's
// evaluation section (§6). Each experiment prints the same rows or
// series the paper reports, plus the measured-vs-paper comparison that
// EXPERIMENTS.md records.
//
// Usage:
//
//	dtpexp -fig 6a          # DTP offsets, beacon interval 200, MTU load
//	dtpexp -fig 6f -series  # PTP under heavy load, with TSV time series
//	dtpexp -table 1         # protocol comparison
//	dtpexp -sweep bound     # 4TD scaling across hop counts
//	dtpexp -all -jobs 8     # everything, fanned out across 8 workers
//
// With -all the independent experiments render concurrently across
// -jobs workers and print in canonical order, so the output is
// byte-identical to a serial run (modulo wall-clock footers).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/dtplab/dtp/internal/cliutil"
	"github.com/dtplab/dtp/internal/experiments"
	"github.com/dtplab/dtp/internal/par"
	"github.com/dtplab/dtp/internal/sim"
)

var (
	// -seed -duration -jobs (duration 0 = per-experiment default)
	shared = cliutil.Flags{}

	figFlag    = flag.String("fig", "", "figure to regenerate: 6a 6b 6c 6d 6e 6f 7a 7b")
	tableFlag  = flag.String("table", "", "table to regenerate: 1 2")
	sweepFlag  = flag.String("sweep", "", "sweep to run: bound alpha beacon cdc tc bc synce master mixed incremental disciplines")
	allFlag    = flag.Bool("all", false, "run every experiment")
	seriesFlag = flag.Bool("series", false, "also print time-series TSV")
)

// allFigs, allTables, and allSweeps define the canonical -all order.
var (
	allFigs   = []string{"6a", "6b", "6c", "6d", "6e", "6f", "7a", "7b"}
	allTables = []string{"1", "2"}
	allSweeps = []string{"bound", "alpha", "beacon", "cdc", "tc", "bc", "synce", "master", "mixed", "incremental", "disciplines"}
)

func main() {
	shared.Register(flag.CommandLine,
		cliutil.FlagSeed|cliutil.FlagDuration|cliutil.FlagJobs|cliutil.FlagDiscipline)
	flag.Parse()
	if err := shared.Validate(); err != nil {
		cliutil.Fatal("dtpexp", 2, err)
	}
	disc, err := shared.ParseDiscipline()
	if err != nil {
		cliutil.Fatal("dtpexp", 2, err)
	}
	o := experiments.Options{
		Seed:       shared.Seed,
		Duration:   sim.FromStd(shared.Duration),
		Jobs:       shared.Jobs,
		Discipline: disc,
	}
	if *allFlag {
		if err := runAll(os.Stdout, o); err != nil {
			cliutil.Fatal("dtpexp", 1, err)
		}
		return
	}
	ran := false
	if *figFlag != "" {
		if err := runFig(os.Stdout, *figFlag, o); err != nil {
			cliutil.Fatal("dtpexp", 1, err)
		}
		ran = true
	}
	if *tableFlag != "" {
		if err := runTable(os.Stdout, *tableFlag, o); err != nil {
			cliutil.Fatal("dtpexp", 1, err)
		}
		ran = true
	}
	if *sweepFlag != "" {
		if err := runSweep(os.Stdout, *sweepFlag, o); err != nil {
			cliutil.Fatal("dtpexp", 1, err)
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runAll renders every experiment into its own buffer, fanning the
// independent runs out across the worker pool, then prints the buffers
// in canonical order. Each item keeps its inner sweeps serial (Jobs=1)
// so parallelism lives at item granularity and the worker pool is not
// oversubscribed.
func runAll(w io.Writer, o experiments.Options) error {
	type item struct {
		kind string
		name string
	}
	var items []item
	for _, f := range allFigs {
		items = append(items, item{"fig", f})
	}
	for _, t := range allTables {
		items = append(items, item{"table", t})
	}
	for _, s := range allSweeps {
		items = append(items, item{"sweep", s})
	}
	inner := o
	inner.Jobs = 1
	bufs, err := par.Map(o.Jobs, len(items), func(i int) ([]byte, error) {
		var b bytes.Buffer
		var err error
		switch items[i].kind {
		case "fig":
			err = runFig(&b, items[i].name, inner)
		case "table":
			err = runTable(&b, items[i].name, inner)
		default:
			err = runSweep(&b, items[i].name, inner)
		}
		return b.Bytes(), err
	})
	if err != nil {
		return err
	}
	for _, b := range bufs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func runFig(w io.Writer, fig string, o experiments.Options) error {
	start := time.Now()
	switch fig {
	case "6a", "6b", "6c":
		var res *experiments.DTPFigResult
		var err error
		var desc string
		switch fig {
		case "6a":
			res, err = experiments.Fig6a(o)
			desc = "DTP offsets, BEACON interval 200, heavy MTU load (paper: within ±4 ticks / 25.6 ns)"
		case "6b":
			res, err = experiments.Fig6b(o)
			desc = "DTP offsets, BEACON interval 1200, heavy jumbo load (paper: within ±4 ticks)"
		default:
			res, err = experiments.Fig6c(o)
			desc = "DTP offset distribution at S3 (paper: concentrated in [-2, 4] ticks)"
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure %s: %s\n", fig, desc)
		printDTPFig(w, fig, res)
	case "6d", "6e", "6f":
		var load experiments.PTPLoad
		var desc string
		switch fig {
		case "6d":
			load, desc = experiments.LoadIdle, "PTP, idle network (paper: hundreds of ns)"
		case "6e":
			load, desc = experiments.LoadMedium, "PTP, medium load (paper: up to ~50 us)"
		default:
			load, desc = experiments.LoadHeavy, "PTP, heavy load (paper: hundreds of us)"
		}
		res, err := experiments.RunPTP(o, load)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure %s: %s\n", fig, desc)
		printPTPFig(w, res)
	case "7a", "7b":
		res, err := experiments.Fig7(o)
		if err != nil {
			return err
		}
		if fig == "7a" {
			fmt.Fprintln(w, "== Figure 7a: DTP daemon raw offsets (paper: usually within ±16 ticks)")
			printDaemonFig(w, res.Raw, res.RawP95, 16)
		} else {
			fmt.Fprintln(w, "== Figure 7b: after moving average, window 10 (paper: usually within ±4 ticks)")
			printDaemonFig(w, res.Smoothed, res.SmoothedP95, 4)
		}
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	fmt.Fprintf(w, "   [%.1fs wall]\n\n", time.Since(start).Seconds())
	return nil
}

func printDTPFig(w io.Writer, fig string, res *experiments.DTPFigResult) {
	names := make([]string, 0, len(res.PairSummaries))
	for n := range res.PairSummaries {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-8s %10s %8s %8s %8s\n", "pair", "samples", "min", "max", "mean")
	for _, n := range names {
		s := res.PairSummaries[n]
		fmt.Fprintf(w, "%-8s %10d %8.0f %8.0f %8.2f\n", n, s.N(), s.Min(), s.Max(), s.Mean())
	}
	fmt.Fprintf(w, "worst sample %.0f ticks (%.1f ns); worst true adjacent offset %d ticks; bound %d ticks\n",
		res.MaxAbsTicks, res.MaxAbsTicks*6.4, res.MaxTrueTicks, res.BoundTicks)
	if fig == "6c" {
		fmt.Fprintln(w, "offset PDFs (ticks:probability):")
		for _, n := range []string{"s3-s9", "s3-s10", "s3-s11", "s3-s0"} {
			if h := res.Hist[n]; h != nil {
				fmt.Fprintf(w, "  %-7s %s\n", n, h)
			}
		}
	}
	if *seriesFlag {
		for _, n := range names {
			fmt.Fprintf(w, "# series %s (s\tticks)\n", n)
			var b strings.Builder
			res.PairSeries[n].WriteTSV(&b)
			fmt.Fprint(w, b.String())
		}
	}
}

func printPTPFig(w io.Writer, res *experiments.PTPFigResult) {
	names := make([]string, 0, len(res.ClientSummaries))
	for n := range res.ClientSummaries {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-6s %10s %12s %12s %12s\n", "client", "samples", "min(ns)", "max(ns)", "p99(ns)")
	for _, n := range names {
		s := res.ClientSummaries[n]
		fmt.Fprintf(w, "%-6s %10d %12.0f %12.0f %12.0f\n", n, s.N(), s.Min(), s.Max(), s.Quantile(0.99))
	}
	fmt.Fprintf(w, "worst |offset| across clients: %.0f ns (load: %v)\n", res.WorstNs, res.Load)
	if *seriesFlag {
		for _, n := range names {
			fmt.Fprintf(w, "# series %s (s\tns)\n", n)
			var b strings.Builder
			res.ClientSeries[n].WriteTSV(&b)
			fmt.Fprint(w, b.String())
		}
	}
}

func printDaemonFig(w io.Writer, data map[string][]float64, p95 float64, bound float64) {
	names := make([]string, 0, len(data))
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-6s samples %6d  range [%.1f, %.1f] ticks\n",
			n, len(data[n]), slices.Min(data[n]), slices.Max(data[n]))
	}
	status := "WITHIN"
	if p95 > bound {
		status = "ABOVE"
	}
	fmt.Fprintf(w, "p95 |offset| = %.1f ticks — %s the paper's ±%.0f-tick envelope\n", p95, status, bound)
}

func runTable(w io.Writer, table string, o experiments.Options) error {
	switch table {
	case "1":
		rows, err := experiments.Table1(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table 1: protocol comparison (measured on this simulator)")
		fmt.Fprintf(w, "%-5s %-10s %-16s %-12s %-10s %s\n",
			"proto", "paper", "measured worst", "scalability", "overhead", "extra hardware")
		for _, r := range rows {
			fmt.Fprintf(w, "%-5s %-10s %13.1f ns %-12s %-10s %s\n",
				r.Protocol, r.PaperPrecision, r.MeasuredWorstNs, r.Scalability, r.Overhead, r.ExtraHW)
		}
	case "2":
		rows, err := experiments.Table2(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table 2: PHY parameters per speed + measured DTP bound")
		fmt.Fprintf(w, "%-5s %-8s %6s %10s %8s %5s %14s %10s\n",
			"rate", "encoding", "width", "freq(MHz)", "T(ns)", "delta", "measured(ns)", "bound(ns)")
		for _, r := range rows {
			measured := "-"
			if r.MeasuredBoundNs > 0 {
				measured = fmt.Sprintf("%.2f", r.MeasuredBoundNs)
			}
			p := r.Profile
			fmt.Fprintf(w, "%-5s %-8s %6d %10.2f %8.2f %5d %14s %10.2f\n",
				p.Speed, p.Encoding, p.WidthBits, p.FreqMHz, float64(p.PeriodFs)/1e6, p.Delta, measured, r.BoundNs)
		}
	default:
		return fmt.Errorf("unknown table %q", table)
	}
	fmt.Fprintln(w)
	return nil
}

func runSweep(w io.Writer, sweep string, o experiments.Options) error {
	switch sweep {
	case "bound":
		rows, err := experiments.BoundSweep(o, 6)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Sweep: 4TD bound vs hops (abstract: 25.6 ns at 1 hop, 153.6 ns at 6)")
		fmt.Fprintf(w, "%4s %10s %10s %12s %10s %s\n", "hops", "max(ticks)", "bound", "max(ns)", "bound(ns)", "ok")
		for _, r := range rows {
			fmt.Fprintf(w, "%4d %10d %10d %12.1f %10.1f %v\n",
				r.Hops, r.MaxTicks, r.BoundTicks, r.MaxOffsetNs, r.BoundNs, r.WithinBound)
		}
	case "alpha":
		rows, err := experiments.AblationAlpha(o, []int64{0, 1, 2, 3, 4})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Ablation: alpha in the OWD measurement (§3.3; paper chooses 3)")
		fmt.Fprintf(w, "%5s %14s %12s\n", "alpha", "ratchet(ppm)", "max(ticks)")
		for _, r := range rows {
			fmt.Fprintf(w, "%5d %14.3f %12d\n", r.Alpha, r.RatchetPPM, r.MaxOffsetTicks)
		}
	case "beacon":
		rows, err := experiments.AblationBeaconInterval(o, []uint64{200, 1200, 4000, 20000, 60000})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Ablation: BEACON interval (§3.3: 2-tick bound holds below ~5000 ticks)")
		fmt.Fprintf(w, "%10s %12s\n", "interval", "max(ticks)")
		for _, r := range rows {
			fmt.Fprintf(w, "%10d %12d\n", r.IntervalTicks, r.MaxOffsetTicks)
		}
	case "cdc":
		rows, err := experiments.AblationCDC(o, []int{0, 1, 2, 3})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Ablation: synchronization-FIFO depth (the only idle-link nondeterminism)")
		fmt.Fprintf(w, "%6s %12s %10s %10s\n", "depth", "max(ticks)", "owd min", "owd max")
		for _, r := range rows {
			fmt.Fprintf(w, "%6d %12d %10d %10d\n", r.ExtraTicks, r.MaxOffsetTicks, r.MeasuredOWDMin, r.MeasuredOWDMax)
		}
	case "tc":
		res, err := experiments.AblationTCModes(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Ablation: transparent-clock fidelity and QoS under heavy load")
		fmt.Fprintf(w, "realistic TC:            %10.0f ns\n", res.RealisticWorstNs)
		fmt.Fprintf(w, "perfect TC:              %10.0f ns\n", res.PerfectWorstNs)
		fmt.Fprintf(w, "no TC:                   %10.0f ns\n", res.OffWorstNs)
		fmt.Fprintf(w, "realistic TC + priority: %10.0f ns\n", res.PriorityWorstNs)
	case "master":
		res, err := experiments.AblationMasterMode(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Ablation: §5.4 follow-the-master vs max-coupling (4-hop chain, root at -100 ppm)")
		fmt.Fprintf(w, "%-12s %12s %12s\n", "mode", "max(ticks)", "rate(ppm)")
		fmt.Fprintf(w, "%-12s %12d %12.2f\n", "max", res.MaxModeOffsetTicks, res.MaxModeRatePPM)
		fmt.Fprintf(w, "%-12s %12d %12.2f\n", "master", res.MasterModeOffsetTicks, res.MasterModeRatePPM)
	case "synce":
		res, err := experiments.AblationSyncE(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== §8 syntonization (SyncE + DTP): leaf-to-leaf offset across 4 hops")
		fmt.Fprintf(w, "%-14s %14s %14s\n", "oscillators", "spread(ticks)", "worst(ticks)")
		fmt.Fprintf(w, "%-14s %14d %14d\n", "free-running", res.FreeRunSpreadTicks, res.FreeRunWorstTicks)
		fmt.Fprintf(w, "%-14s %14d %14d\n", "syntonized", res.SyntonizedSpreadTicks, res.SyntonizedWorstTicks)
	case "bc":
		rows, err := experiments.AblationBCCascade(o, 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== §2.4.2 boundary-clock cascade: client error vs timing-tree depth (idle net)")
		fmt.Fprintf(w, "%8s %12s %12s\n", "levels", "worst(ns)", "p99(ns)")
		for _, r := range rows {
			fmt.Fprintf(w, "%8d %12.1f %12.1f\n", r.Levels, r.WorstNs, r.P99Ns)
		}
	case "mixed":
		rows, err := experiments.MixedSpeedSweep(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== §7 mixed speeds: 10G host links, varying core link, counters in 0.32 ns base units")
		fmt.Fprintf(w, "%6s %12s %12s %10s %10s\n", "core", "max(units)", "bound", "max(ns)", "bound(ns)")
		for _, r := range rows {
			fmt.Fprintf(w, "%6v %12d %12d %10.2f %10.2f\n", r.Core, r.MaxUnits, r.BoundUnits, r.MaxNs, r.BoundNs)
		}
	case "incremental":
		res, err := experiments.IncrementalDeployment(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== §5.3 incremental deployment: DTP racks + PTP masters, then DTP-enabled aggregation")
		fmt.Fprintf(w, "intra-rack (DTP):        %10.1f ns\n", res.IntraRackWorstNs)
		fmt.Fprintf(w, "inter-rack (via PTP):    %10.1f ns\n", res.InterRackWorstNs)
		fmt.Fprintf(w, "merged (all-DTP):        %10.1f ns\n", res.MergedWorstNs)
	case "disciplines":
		rows, err := experiments.DisciplineSweep(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Discipline lab: software-clock estimators per noise scenario (daemon on s4, paper tree)")
		fmt.Fprintf(w, "%-10s %-12s %12s %10s %10s %8s %8s\n",
			"kind", "scenario", "converge(ms)", "p99(ticks)", "worst", "dropped", "err(ticks)")
		for _, r := range rows {
			conv := "never"
			if r.ConvergeMs >= 0 {
				conv = fmt.Sprintf("%.0f", r.ConvergeMs)
			}
			errS := "unbounded"
			if r.ErrTicks >= 0 {
				errS = fmt.Sprintf("%.1f", r.ErrTicks)
			}
			fmt.Fprintf(w, "%-10s %-12s %12s %10.1f %10.1f %8d %8s\n",
				r.Kind, r.Scenario, conv, r.P99Ticks, r.WorstTicks, r.Dropped, errS)
		}
	default:
		return fmt.Errorf("unknown sweep %q", sweep)
	}
	fmt.Fprintln(w)
	return nil
}
