package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Result is the per-run record a campaign collects. Every field that
// lands in JSON is a pure function of the run's Point (the whole run
// record, grid-wide settings included), so JSONL and aggregate output is byte-identical across
// worker counts and re-runs. Wall time is the one host-dependent
// measurement; it is deliberately excluded from JSON and only surfaced
// in the human-readable summary.
type Result struct {
	Point

	// Err is a run-level failure (topology parse error, sync timeout,
	// scenario load failure). Runs with Err set have zero-valued
	// measurements.
	Err string `json:"error,omitempty"`

	// Synced reports whether every link completed INIT in time.
	Synced bool `json:"synced"`
	// TimeToSyncUs is the simulated time INIT took, in microseconds.
	TimeToSyncUs float64 `json:"time_to_sync_us"`

	// MaxOffsetTicks is the worst ground-truth pairwise offset sampled
	// over the measurement window, in counter units.
	MaxOffsetTicks int64 `json:"max_offset_ticks"`
	// P50OffsetTicks / P99OffsetTicks are percentiles of the sampled
	// worst-pair offsets.
	P50OffsetTicks float64 `json:"p50_offset_ticks"`
	P99OffsetTicks float64 `json:"p99_offset_ticks"`
	// BoundTicks is the 4TD precision bound in counter units.
	BoundTicks int64 `json:"bound_ticks"`
	// WithinBound reports MaxOffsetTicks <= BoundTicks. Runs with
	// active fault injection legitimately exceed the bound while faults
	// are live; ChaosOK is the authoritative verdict then.
	WithinBound bool `json:"within_bound"`
	// MaxOffsetNs / BoundNs are the same in nanoseconds.
	MaxOffsetNs float64 `json:"max_offset_ns"`
	BoundNs     float64 `json:"bound_ns"`

	// OWDMinTicks / OWDMaxTicks are the range of one-way delays the
	// ports measured during INIT, across every link direction.
	OWDMinTicks int64 `json:"owd_min_ticks"`
	OWDMaxTicks int64 `json:"owd_max_ticks"`

	// AuditChecks / AuditViolations / AuditExcused summarize the online
	// 4TD auditor: unexcused violations mean the precision claim broke
	// outside any declared fault window.
	AuditChecks     uint64 `json:"audit_checks"`
	AuditViolations uint64 `json:"audit_violations"`
	AuditExcused    uint64 `json:"audit_excused"`

	// ChaosOK is the scenario Verify() outcome (true when no scenario
	// was attached); ChaosErr carries the verification failure.
	ChaosOK  bool   `json:"chaos_ok"`
	ChaosErr string `json:"chaos_error,omitempty"`

	// CounterRejections / PortQuarantines count the hardened-mode
	// defenses firing: remote counter advances refused by bounded-jump
	// admission and ports quarantined after repeated rejections. Always
	// zero on unhardened or honest runs — the Byzantine tolerance
	// campaign reads them as "the defense engaged".
	CounterRejections uint64 `json:"counter_rejections,omitempty"`
	PortQuarantines   uint64 `json:"port_quarantines,omitempty"`

	// Time* fields summarize the serving-plane probe (Grid.TimeService):
	// every sampling tick reads each served host's TrueTime-style
	// interval and checks it against ground truth. TimeReads counts
	// served intervals, TimeUncovered how many excluded true time (the
	// one unforgivable outcome on a fault-free run), TimeFailedClosed
	// how many reads failed closed (stale/no snapshot — honest during
	// warmup or faults). Zero-valued unless the grid enabled the plane.
	TimeReads        uint64 `json:"time_reads,omitempty"`
	TimeUncovered    uint64 `json:"time_uncovered,omitempty"`
	TimeFailedClosed uint64 `json:"time_failed_closed,omitempty"`
	// TimePublishes totals snapshot publishes across served hosts.
	TimePublishes uint64 `json:"time_publishes,omitempty"`
	// TimeWidthP50Ps / TimeWidthP99Ps are percentiles of the sampled
	// interval widths, in UTC picoseconds.
	TimeWidthP50Ps float64 `json:"time_width_p50_ps,omitempty"`
	TimeWidthP99Ps float64 `json:"time_width_p99_ps,omitempty"`

	// Daemon* fields summarize the discipline probe (Point.Discipline):
	// a daemon on the run's first host, sampled at the grid cadence.
	// DaemonSamples counts probe samples, DaemonP99OffsetTicks is the
	// p99 |estimate - hardware counter| over the window's second half,
	// DaemonConvergeUs the simulated time until the estimate first held
	// the ±4-tick band for 10 consecutive samples (-1 = never),
	// DaemonDropped the discipline's outlier rejections, DaemonErrTicks
	// its final self-reported error bound (-1 before first calibration —
	// +Inf is not JSON-encodable). Zero-valued without a probe.
	DaemonSamples        uint64  `json:"daemon_samples,omitempty"`
	DaemonP99OffsetTicks float64 `json:"daemon_p99_offset_ticks,omitempty"`
	DaemonConvergeUs     float64 `json:"daemon_converge_us,omitempty"`
	DaemonDropped        uint64  `json:"daemon_dropped,omitempty"`
	DaemonErrTicks       float64 `json:"daemon_err_ticks,omitempty"`

	// TimelinePath is the run's exported timeline JSONL (set when the
	// grid's FlightDir armed observability); FlightBundles lists the
	// flight-recorder bundles the run tripped, in trigger order. Both
	// are pure functions of (grid, point), so they stay deterministic.
	TimelinePath  string   `json:"timeline,omitempty"`
	FlightBundles []string `json:"flight_bundles,omitempty"`

	// Wall is the run's host wall-clock cost. Excluded from JSON: it
	// would break byte-determinism across worker counts.
	Wall time.Duration `json:"-"`
}

// OK reports whether the run passed every check it was subject to.
func (r *Result) OK() bool {
	if r.Err != "" || !r.Synced || !r.ChaosOK {
		return false
	}
	if r.AuditViolations > 0 {
		return false
	}
	// Under chaos the instantaneous max may exceed the bound inside
	// excused windows; the auditor + Verify() already enforced the
	// windowed claim above.
	if r.Chaos == "" && !r.WithinBound {
		return false
	}
	// A served interval that excludes true time breaks the TrueTime
	// contract. Under chaos, mid-fault samples may legitimately miss
	// (the chaos invariant test excuses declared windows; the campaign
	// probe cannot), so the strict form only binds fault-free runs.
	if r.Chaos == "" && r.TimeUncovered > 0 {
		return false
	}
	return true
}

// Aggregate is the campaign-level rollup, computed from Results in grid
// order. Like Result it contains no host-dependent fields.
type Aggregate struct {
	Name    string `json:"name,omitempty"`
	Runs    int    `json:"runs"`
	Passed  int    `json:"passed"`
	Failed  int    `json:"failed"`
	Errored int    `json:"errored"`

	// WorstOffsetTicks / WorstOffsetNs are the worst sampled offset
	// across all runs; WorstRun is its grid index.
	WorstOffsetTicks int64   `json:"worst_offset_ticks"`
	WorstOffsetNs    float64 `json:"worst_offset_ns"`
	WorstRun         int     `json:"worst_run"`

	// MaxTimeToSyncUs is the slowest INIT across runs, in microseconds.
	MaxTimeToSyncUs float64 `json:"max_time_to_sync_us"`

	// OWDMinTicks / OWDMaxTicks pool the per-run OWD ranges.
	OWDMinTicks int64 `json:"owd_min_ticks"`
	OWDMaxTicks int64 `json:"owd_max_ticks"`

	// AuditViolations / AuditExcused total the per-run audit verdicts.
	AuditViolations uint64 `json:"audit_violations"`
	AuditExcused    uint64 `json:"audit_excused"`

	// ChaosRuns / ChaosVerified count fault-injection runs and how many
	// passed Verify().
	ChaosRuns     int `json:"chaos_runs"`
	ChaosVerified int `json:"chaos_verified"`

	// CounterRejections / PortQuarantines total the hardened-mode
	// defense activity across runs.
	CounterRejections uint64 `json:"counter_rejections,omitempty"`
	PortQuarantines   uint64 `json:"port_quarantines,omitempty"`

	// TimeReads / TimeUncovered / TimeFailedClosed pool the serving-
	// plane probes across runs; WorstTimeWidthP99Ps is the widest p99
	// interval any run served.
	TimeReads           uint64  `json:"time_reads,omitempty"`
	TimeUncovered       uint64  `json:"time_uncovered,omitempty"`
	TimeFailedClosed    uint64  `json:"time_failed_closed,omitempty"`
	WorstTimeWidthP99Ps float64 `json:"worst_time_width_p99_ps,omitempty"`
}

// Aggregated folds Results (in grid order) into the campaign rollup.
func Aggregated(name string, results []Result) Aggregate {
	agg := Aggregate{Name: name, Runs: len(results), WorstRun: -1}
	for i, r := range results {
		switch {
		case r.Err != "":
			agg.Errored++
			agg.Failed++
			continue
		case r.OK():
			agg.Passed++
		default:
			agg.Failed++
		}
		if r.MaxOffsetTicks > agg.WorstOffsetTicks || agg.WorstRun < 0 {
			agg.WorstOffsetTicks = r.MaxOffsetTicks
			agg.WorstOffsetNs = r.MaxOffsetNs
			agg.WorstRun = i
		}
		if r.TimeToSyncUs > agg.MaxTimeToSyncUs {
			agg.MaxTimeToSyncUs = r.TimeToSyncUs
		}
		if agg.OWDMinTicks == 0 && agg.OWDMaxTicks == 0 {
			agg.OWDMinTicks, agg.OWDMaxTicks = r.OWDMinTicks, r.OWDMaxTicks
		} else {
			if r.OWDMinTicks < agg.OWDMinTicks {
				agg.OWDMinTicks = r.OWDMinTicks
			}
			if r.OWDMaxTicks > agg.OWDMaxTicks {
				agg.OWDMaxTicks = r.OWDMaxTicks
			}
		}
		agg.AuditViolations += r.AuditViolations
		agg.AuditExcused += r.AuditExcused
		if r.Chaos != "" {
			agg.ChaosRuns++
			if r.ChaosOK {
				agg.ChaosVerified++
			}
		}
		agg.CounterRejections += r.CounterRejections
		agg.PortQuarantines += r.PortQuarantines
		agg.TimeReads += r.TimeReads
		agg.TimeUncovered += r.TimeUncovered
		agg.TimeFailedClosed += r.TimeFailedClosed
		if r.TimeWidthP99Ps > agg.WorstTimeWidthP99Ps {
			agg.WorstTimeWidthP99Ps = r.TimeWidthP99Ps
		}
	}
	return agg
}

// WriteJSONL writes one compact JSON record per run, in grid order.
// Output is byte-deterministic for a given grid.
func WriteJSONL(w io.Writer, results []Result) error {
	for i := range results {
		if err := WriteResultJSON(w, &results[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteResultJSON writes a single run record as one JSONL line.
func WriteResultJSON(w io.Writer, r *Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// WriteAggregateJSON writes the indented campaign rollup. Byte-
// deterministic for a given grid, independent of worker count.
func WriteAggregateJSON(w io.Writer, agg Aggregate) error {
	b, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Summary renders the human-readable campaign verdict, including the
// (host-dependent) wall-clock accounting that JSON output omits.
func (rep *Report) Summary() string {
	var b strings.Builder
	agg := rep.Aggregate
	name := agg.Name
	if name == "" {
		name = "campaign"
	}
	fmt.Fprintf(&b, "%s: %d runs, %d passed, %d failed", name, agg.Runs, agg.Passed, agg.Failed)
	if agg.Errored > 0 {
		fmt.Fprintf(&b, " (%d errored)", agg.Errored)
	}
	fmt.Fprintf(&b, "\n  worst offset %d ticks = %.1f ns (run %d); slowest sync %.0f µs; OWD %d..%d ticks\n",
		agg.WorstOffsetTicks, agg.WorstOffsetNs, agg.WorstRun, agg.MaxTimeToSyncUs,
		agg.OWDMinTicks, agg.OWDMaxTicks)
	if agg.TimeReads > 0 {
		fmt.Fprintf(&b, "  time service: %d interval reads, %d uncovered, %d failed closed; worst p99 width %.0f ps\n",
			agg.TimeReads, agg.TimeUncovered, agg.TimeFailedClosed, agg.WorstTimeWidthP99Ps)
	}
	if agg.ChaosRuns > 0 {
		fmt.Fprintf(&b, "  chaos: %d/%d scenarios verified; audit: %d unexcused violations, %d excused\n",
			agg.ChaosVerified, agg.ChaosRuns, agg.AuditViolations, agg.AuditExcused)
	} else if agg.AuditViolations+agg.AuditExcused > 0 {
		fmt.Fprintf(&b, "  audit: %d unexcused violations, %d excused\n",
			agg.AuditViolations, agg.AuditExcused)
	}
	if agg.CounterRejections+agg.PortQuarantines > 0 {
		fmt.Fprintf(&b, "  hardened: %d counter advances rejected, %d port quarantines\n",
			agg.CounterRejections, agg.PortQuarantines)
	}
	var serial time.Duration
	for i := range rep.Results {
		serial += rep.Results[i].Wall
	}
	if rep.Wall > 0 && serial > 0 {
		fmt.Fprintf(&b, "  wall %.2fs on %d workers (runs total %.2fs, speedup %.2fx)",
			rep.Wall.Seconds(), rep.Jobs, serial.Seconds(), serial.Seconds()/rep.Wall.Seconds())
	}
	return strings.TrimRight(b.String(), "\n")
}
