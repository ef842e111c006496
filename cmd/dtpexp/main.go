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

	figFlag    = flag.String("fig", "", "figure to regenerate: "+names("fig"))
	tableFlag  = flag.String("table", "", "table to regenerate: "+names("table"))
	sweepFlag  = flag.String("sweep", "", "sweep to run: "+names("sweep"))
	allFlag    = flag.Bool("all", false, "run every experiment")
	seriesFlag = flag.Bool("series", false, "also print time-series TSV")
)

// experiment is one name a -fig, -table or -sweep flag selects.
type experiment struct {
	flag string // "fig", "table" or "sweep"
	name string
	run  func(w io.Writer, o experiments.Options) error
}

// catalogue lists every experiment once, in -all order. It is the only
// place the names live: the flags' help, -all and dispatch read it.
var catalogue = []experiment{
	fig("6a", "DTP offsets, BEACON interval 200, heavy MTU load (paper: within ±4 ticks / 25.6 ns)", dtpFig(experiments.Fig6a, false)),
	fig("6b", "DTP offsets, BEACON interval 1200, heavy jumbo load (paper: within ±4 ticks)", dtpFig(experiments.Fig6b, false)),
	fig("6c", "DTP offset distribution at S3 (paper: concentrated in [-2, 4] ticks)", dtpFig(experiments.Fig6c, true)),
	fig("6d", "PTP, idle network (paper: hundreds of ns)", ptpFig(experiments.LoadIdle)),
	fig("6e", "PTP, medium load (paper: up to ~50 us)", ptpFig(experiments.LoadMedium)),
	fig("6f", "PTP, heavy load (paper: hundreds of us)", ptpFig(experiments.LoadHeavy)),
	fig("7a", "DTP daemon raw offsets (paper: usually within ±16 ticks)", daemonFig(false)),
	fig("7b", "after moving average, window 10 (paper: usually within ±4 ticks)", daemonFig(true)),
	{"table", "1", table1},
	{"table", "2", table2},
	{"sweep", "bound", sweepBound},
	{"sweep", "alpha", sweepAlpha},
	{"sweep", "beacon", sweepBeacon},
	{"sweep", "cdc", sweepCDC},
	{"sweep", "tc", sweepTC},
	{"sweep", "bc", sweepBC},
	{"sweep", "synce", sweepSyncE},
	{"sweep", "master", sweepMaster},
	{"sweep", "mixed", sweepMixed},
	{"sweep", "incremental", sweepIncremental},
	{"sweep", "disciplines", sweepDisciplines},
}

// names lists, space-separated, the experiments one flag selects.
func names(kind string) string {
	var out []string
	for _, x := range catalogue {
		if x.flag == kind {
			out = append(out, x.name)
		}
	}
	return strings.Join(out, " ")
}

// lookup returns the experiment -kind name selects.
func lookup(kind, name string) (experiment, error) {
	for _, x := range catalogue {
		if x.flag == kind && x.name == name {
			return x, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown -%s %q (want one of: %s)", kind, name, names(kind))
}

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
	// Every name is checked before anything runs.
	var picked []experiment
	for _, sel := range []struct{ kind, name string }{{"fig", *figFlag}, {"table", *tableFlag}, {"sweep", *sweepFlag}} {
		if sel.name == "" {
			continue
		}
		x, err := lookup(sel.kind, sel.name)
		if err != nil {
			cliutil.Fatal("dtpexp", 2, err)
		}
		picked = append(picked, x)
	}
	if *allFlag {
		if err := runAll(os.Stdout, o); err != nil {
			cliutil.Fatal("dtpexp", 1, err)
		}
		return
	}
	if len(picked) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, x := range picked {
		if err := x.render(os.Stdout, o); err != nil {
			cliutil.Fatal("dtpexp", 1, err)
		}
	}
}

// render runs the experiment into w and ends its block: a figure with
// its wall time, every block with a blank line.
func (x experiment) render(w io.Writer, o experiments.Options) error {
	start := time.Now()
	if err := x.run(w, o); err != nil {
		return err
	}
	if x.flag == "fig" {
		fmt.Fprintf(w, "   [%.1fs wall]\n", time.Since(start).Seconds())
	}
	_, err := fmt.Fprintln(w)
	return err
}

// runAll renders every experiment into its own buffer, fanning the
// independent runs out across the worker pool, then prints the buffers
// in canonical order. Each item keeps its inner sweeps serial (Jobs=1)
// so parallelism lives at item granularity and the worker pool is not
// oversubscribed.
func runAll(w io.Writer, o experiments.Options) error {
	inner := o
	inner.Jobs = 1
	bufs, err := par.Map(o.Jobs, len(catalogue), func(i int) ([]byte, error) {
		var b bytes.Buffer
		err := catalogue[i].render(&b, inner)
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

// fig makes a figure row: what run prints follows the "== Figure" line.
func fig(name, desc string, run func(w io.Writer, o experiments.Options) error) experiment {
	return experiment{"fig", name, func(w io.Writer, o experiments.Options) error {
		var b bytes.Buffer
		if err := run(&b, o); err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure %s: %s\n", name, desc)
		_, err := b.WriteTo(w)
		return err
	}}
}

func dtpFig(run func(experiments.Options) (*experiments.DTPFigResult, error), pdfs bool) func(io.Writer, experiments.Options) error {
	return func(w io.Writer, o experiments.Options) error {
		res, err := run(o)
		if err != nil {
			return err
		}
		printDTPFig(w, pdfs, res)
		return nil
	}
}

func ptpFig(load experiments.PTPLoad) func(io.Writer, experiments.Options) error {
	return func(w io.Writer, o experiments.Options) error {
		res, err := experiments.RunPTP(o, load)
		if err != nil {
			return err
		}
		printPTPFig(w, res)
		return nil
	}
}

func daemonFig(smoothed bool) func(io.Writer, experiments.Options) error {
	return func(w io.Writer, o experiments.Options) error {
		res, err := experiments.Fig7(o)
		if err != nil {
			return err
		}
		if smoothed {
			printDaemonFig(w, res.Smoothed, res.SmoothedP95, 4)
		} else {
			printDaemonFig(w, res.Raw, res.RawP95, 16)
		}
		return nil
	}
}

func printDTPFig(w io.Writer, pdfs bool, res *experiments.DTPFigResult) {
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
	if pdfs {
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

func table1(w io.Writer, o experiments.Options) error {
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
	return nil
}

func table2(w io.Writer, o experiments.Options) error {
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
	return nil
}

func sweepBound(w io.Writer, o experiments.Options) error {
	rows, err := experiments.BoundSweep(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Sweep: 4TD bound vs hops (abstract: 25.6 ns at 1 hop, 153.6 ns at 6)")
	fmt.Fprintf(w, "%4s %10s %10s %12s %10s %s\n", "hops", "max(ticks)", "bound", "max(ns)", "bound(ns)", "ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %10d %10d %12.1f %10.1f %v\n",
			r.Hops, r.MaxTicks, r.BoundTicks, r.MaxOffsetNs, r.BoundNs, r.WithinBound)
	}
	return nil
}

func sweepAlpha(w io.Writer, o experiments.Options) error {
	rows, err := experiments.AblationAlpha(o, []int64{0, 1, 2, 3, 4})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: alpha in the OWD measurement (§3.3; paper chooses 3)")
	fmt.Fprintf(w, "%5s %14s %12s\n", "alpha", "ratchet(ppm)", "max(ticks)")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %14.3f %12d\n", r.Alpha, r.RatchetPPM, r.MaxOffsetTicks)
	}
	return nil
}

func sweepBeacon(w io.Writer, o experiments.Options) error {
	rows, err := experiments.AblationBeaconInterval(o, []uint64{200, 1200, 4000, 20000, 60000})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: BEACON interval (§3.3: 2-tick bound holds below ~5000 ticks)")
	fmt.Fprintf(w, "%10s %12s\n", "interval", "max(ticks)")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %12d\n", r.IntervalTicks, r.MaxOffsetTicks)
	}
	return nil
}

func sweepCDC(w io.Writer, o experiments.Options) error {
	rows, err := experiments.AblationCDC(o, []int{0, 1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: synchronization-FIFO depth (the only idle-link nondeterminism)")
	fmt.Fprintf(w, "%6s %12s %10s %10s\n", "depth", "max(ticks)", "owd min", "owd max")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %12d %10d %10d\n", r.ExtraTicks, r.MaxOffsetTicks, r.MeasuredOWDMin, r.MeasuredOWDMax)
	}
	return nil
}

func sweepTC(w io.Writer, o experiments.Options) error {
	res, err := experiments.AblationTCModes(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: transparent-clock fidelity and QoS under heavy load")
	fmt.Fprintf(w, "realistic TC:            %10.0f ns\n", res.RealisticWorstNs)
	fmt.Fprintf(w, "perfect TC:              %10.0f ns\n", res.PerfectWorstNs)
	fmt.Fprintf(w, "no TC:                   %10.0f ns\n", res.OffWorstNs)
	fmt.Fprintf(w, "realistic TC + priority: %10.0f ns\n", res.PriorityWorstNs)
	return nil
}

func sweepMaster(w io.Writer, o experiments.Options) error {
	res, err := experiments.AblationMasterMode(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: §5.4 follow-the-master vs max-coupling (4-hop chain, root at -100 ppm)")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "mode", "max(ticks)", "rate(ppm)")
	fmt.Fprintf(w, "%-12s %12d %12.2f\n", "max", res.MaxModeOffsetTicks, res.MaxModeRatePPM)
	fmt.Fprintf(w, "%-12s %12d %12.2f\n", "master", res.MasterModeOffsetTicks, res.MasterModeRatePPM)
	return nil
}

func sweepSyncE(w io.Writer, o experiments.Options) error {
	res, err := experiments.AblationSyncE(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== §8 syntonization (SyncE + DTP): leaf-to-leaf offset across 4 hops")
	fmt.Fprintf(w, "%-14s %14s %14s\n", "oscillators", "spread(ticks)", "worst(ticks)")
	fmt.Fprintf(w, "%-14s %14d %14d\n", "free-running", res.FreeRunSpreadTicks, res.FreeRunWorstTicks)
	fmt.Fprintf(w, "%-14s %14d %14d\n", "syntonized", res.SyntonizedSpreadTicks, res.SyntonizedWorstTicks)
	return nil
}

func sweepBC(w io.Writer, o experiments.Options) error {
	rows, err := experiments.AblationBCCascade(o, 3)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== §2.4.2 boundary-clock cascade: client error vs timing-tree depth (idle net)")
	fmt.Fprintf(w, "%8s %12s %12s\n", "levels", "worst(ns)", "p99(ns)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.1f %12.1f\n", r.Levels, r.WorstNs, r.P99Ns)
	}
	return nil
}

func sweepMixed(w io.Writer, o experiments.Options) error {
	rows, err := experiments.MixedSpeedSweep(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== §7 mixed speeds: 10G host links, varying core link, counters in 0.32 ns base units")
	fmt.Fprintf(w, "%6s %12s %12s %10s %10s\n", "core", "max(units)", "bound", "max(ns)", "bound(ns)")
	for _, r := range rows {
		fmt.Fprintf(w, "%6v %12d %12d %10.2f %10.2f\n", r.Core, r.MaxUnits, r.BoundUnits, r.MaxNs, r.BoundNs)
	}
	return nil
}

func sweepIncremental(w io.Writer, o experiments.Options) error {
	res, err := experiments.IncrementalDeployment(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== §5.3 incremental deployment: DTP racks + PTP masters, then DTP-enabled aggregation")
	fmt.Fprintf(w, "intra-rack (DTP):        %10.1f ns\n", res.IntraRackWorstNs)
	fmt.Fprintf(w, "inter-rack (via PTP):    %10.1f ns\n", res.InterRackWorstNs)
	fmt.Fprintf(w, "merged (all-DTP):        %10.1f ns\n", res.MergedWorstNs)
	return nil
}

func sweepDisciplines(w io.Writer, o experiments.Options) error {
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
	return nil
}
