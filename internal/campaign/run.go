package campaign

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dtplab/dtp"
	"github.com/dtplab/dtp/internal/par"
	"github.com/dtplab/dtp/internal/stats"
)

// Options control campaign execution. They affect scheduling only —
// never the per-run measurements — so any Jobs value produces the same
// Results.
type Options struct {
	// Jobs is the worker-pool width (<= 0 selects GOMAXPROCS).
	Jobs int
	// OnResult, when set, is called once per run in grid order (an
	// ordered reassembly buffer holds completed runs until their turn),
	// e.g. to stream JSONL while the campaign executes.
	OnResult func(*Result)
}

// Report is a completed campaign: the expanded grid, per-run Results in
// grid order, and the deterministic aggregate. Wall and Jobs are the
// host-dependent execution record, kept out of all JSON output.
type Report struct {
	Grid      Grid
	Results   []Result
	Aggregate Aggregate
	Jobs      int
	Wall      time.Duration
}

// OK reports whether every run passed.
func (rep *Report) OK() bool {
	return rep.Aggregate.Failed == 0
}

// Run expands the grid and executes every point across the worker
// pool. Per-run failures land in their Result's Err field rather than
// aborting the campaign; the returned error is reserved for grid
// validation problems.
func Run(g Grid, opts Options) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g = g.withDefaults()
	points := g.Expand()
	jobs := par.Jobs(opts.Jobs)

	start := time.Now()
	results := make([]Result, len(points))
	var emit func(i int)
	if opts.OnResult != nil {
		emit = orderedEmitter(results, opts.OnResult)
	}
	// Map's worker indices arrive in any order; results land by index,
	// so the merge is in grid order no matter how execution interleaves.
	_, _ = par.Map(jobs, len(points), func(i int) (struct{}, error) {
		results[i] = runPoint(points[i], g.FlightDir)
		if emit != nil {
			emit(i)
		}
		return struct{}{}, nil
	})
	rep := &Report{
		Grid: g, Results: results,
		Aggregate: Aggregated(g.Name, results),
		Jobs:      jobs, Wall: time.Since(start),
	}
	return rep, nil
}

// orderedEmitter returns a completion hook that releases results to fn
// strictly in grid order: run i is held until runs 0..i-1 have been
// emitted. Safe for concurrent callers.
func orderedEmitter(results []Result, fn func(*Result)) func(i int) {
	var mu sync.Mutex
	done := make([]bool, len(results))
	next := 0
	return func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		for next < len(results) && done[next] {
			fn(&results[next])
			next++
		}
	}
}

// runPoint executes one point to completion and returns its Result:
// Arm the point, one sample loop, fill. flightDir, when set, arms the
// black box: every run gets its own registry + tracer (runs stay
// independent), a timeline at the sampling cadence, and a flight
// recorder dumping into <flightDir>/run-NNN/. Exported so tests and
// benchmarks can run single points; the campaign's determinism rests on
// this function depending only on its arguments, never on shared state.
func runPoint(p Point, flightDir string) (res Result) {
	res = Result{Point: p, ChaosOK: true}
	wallStart := time.Now()
	defer func() { res.Wall = time.Since(wallStart) }()
	fail := func(err error) Result {
		res.Err = err.Error()
		return res
	}

	spec := Spec{Point: p, Audit: true}
	if flightDir != "" {
		spec.FlightDir = filepath.Join(flightDir, fmt.Sprintf("run-%03d", p.Index))
		spec.Registry, spec.Tracer = dtp.NewMetricsRegistry(), dtp.NewTracer(0)
	}
	rig, err := Arm(spec)
	if err != nil {
		return fail(err)
	}
	sys, tp := rig.Sys, rig.Plane
	defer sys.Close()
	res.Synced = true
	res.TimeToSyncUs = sys.Now().Seconds() * 1e6

	// OWD range across every link direction, measured during INIT.
	res.OWDMinTicks, res.OWDMaxTicks = owdRange(sys)

	// Sample the worst pairwise offset at a fixed simulated cadence;
	// the percentiles summarize the sampled envelope. The probe daemon
	// and every served clock are read at the same instants.
	sample := p.SamplePeriod.Std()
	summary := stats.NewSummary(0)
	widths := stats.NewSummary(0)
	var probeOffs []float64
	for elapsed := time.Duration(0); elapsed < p.Duration.Std(); elapsed += sample {
		sys.Run(sample)
		off := sys.MaxOffsetTicks()
		if off > res.MaxOffsetTicks {
			res.MaxOffsetTicks = off
		}
		summary.Add(float64(off))
		if rig.Probe != nil {
			probeOffs = append(probeOffs, rig.Probe.OffsetTicks())
		}
		if tp != nil {
			for _, h := range tp.Hosts() {
				w, covered, err := tp.ReadCheck(h)
				if err != nil {
					res.TimeFailedClosed++
					rig.readStale(h, err)
					continue
				}
				res.TimeReads++
				if !covered {
					res.TimeUncovered++
				}
				widths.Add(w)
			}
		}
	}
	res.P50OffsetTicks = summary.Quantile(0.5)
	res.P99OffsetTicks = summary.Quantile(0.99)
	if probe := rig.Probe; probe != nil {
		res.DaemonSamples = uint64(len(probeOffs))
		res.DaemonDropped = probe.DroppedSamples()
		res.DaemonErrTicks = probe.ErrorBoundTicks()
		if math.IsInf(res.DaemonErrTicks, 0) {
			res.DaemonErrTicks = -1 // no calibration completed; JSON has no +Inf
		}
		daemonStats(&res, probeOffs, sample)
	}
	if res.TimeReads > 0 {
		res.TimeWidthP50Ps = widths.Quantile(0.5)
		res.TimeWidthP99Ps = widths.Quantile(0.99)
	}
	if tp != nil {
		for _, h := range tp.Hosts() {
			if svc, err := tp.Service(h); err == nil {
				res.TimePublishes += svc.Publishes()
			}
		}
	}
	res.BoundTicks = sys.BoundTicks()
	res.WithinBound = res.MaxOffsetTicks <= res.BoundTicks
	res.MaxOffsetNs = float64(res.MaxOffsetTicks) * sys.TickNanos()
	res.BoundNs = sys.BoundNanos()

	if err := rig.VerifyChaos(); err != nil {
		res.ChaosOK = false
		res.ChaosErr = err.Error()
	}
	aud := rig.Auditor
	res.AuditChecks = aud.Checks()
	res.AuditViolations = aud.Violations()
	res.AuditExcused = aud.ExcusedViolations()
	res.CounterRejections, res.PortQuarantines = sys.ByzantineStats()

	if rec := rig.Recorder; rec != nil {
		if err := writeTimeline(rig.Timeline, spec.FlightDir); err != nil {
			return fail(err)
		}
		res.TimelinePath = filepath.Join(spec.FlightDir, "timeline.jsonl")
		res.FlightBundles = rec.Bundles()
		if err := rec.Err(); err != nil {
			// A bundle that failed to land is a run-level failure: the
			// operator asked for the black box and did not get it.
			res.Err = err.Error()
		}
	}
	return res
}

// daemonStats folds the probe's sampled offsets into the Result: p99
// |offset| over the second half of the window, and the convergence
// time — when the estimate first held the paper's ±4-tick band for 10
// consecutive samples (-1 = never within this window).
func daemonStats(res *Result, offs []float64, sample time.Duration) {
	s := stats.NewSummary(0)
	for _, o := range offs[len(offs)/2:] {
		s.Add(o)
	}
	res.DaemonP99OffsetTicks = s.QuantileAbs(0.99)
	const band, hold = 4.0, 10
	res.DaemonConvergeUs = -1
	run := 0
	for i, o := range offs {
		if math.Abs(o) > band {
			run = 0
			continue
		}
		if run++; run == hold {
			res.DaemonConvergeUs = float64(i-hold+2) * sample.Seconds() * 1e6
			break
		}
	}
}

// writeTimeline exports a run's timeline window as JSONL into its
// flight directory (already created by the recorder).
func writeTimeline(tl *dtp.Timeline, dir string) error {
	f, err := os.Create(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		return err
	}
	if err := tl.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// owdRange scans every link direction for the one-way delay its port
// measured during INIT, in counter units.
func owdRange(sys *dtp.System) (lo, hi int64) {
	g := sys.Graph()
	first := true
	for _, l := range g.Links {
		a, b := g.Nodes[l.A].Name, g.Nodes[l.B].Name
		for _, dir := range [2][2]string{{a, b}, {b, a}} {
			owd, err := sys.MeasuredOWDTicks(dir[0], dir[1])
			if err != nil || owd < 0 {
				continue
			}
			if first || owd < lo {
				lo = owd
			}
			if first || owd > hi {
				hi = owd
			}
			first = false
		}
	}
	return lo, hi
}
