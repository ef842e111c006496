package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/dtplab/dtp/internal/sim"
)

// Timeline is the windowed time-series store: a fixed ring of periodic
// snapshot rows, one value per registered column, sampled by a
// scheduler event at a fixed simulated cadence. Point metrics (the
// Registry) answer "what is the state now"; the Timeline answers "how
// was the system trending" — the served-interval width ramping up for
// two milliseconds before a bound breach is invisible in a gauge and
// obvious in a timeline.
//
// The columns are fixed when NewTimeline builds it; each carries a probe
// closure that runs on the simulation goroutine (the sampling tick is a
// scheduler event), so probes may touch sim-owned state freely. Two
// column modes exist: a gauge column stores the probe value as-is; a
// rate column stores the per-second delta of a cumulative probe.
//
// Readers (the /timeline HTTP endpoint, JSONL export, flight-recorder
// bundles) take a short mutex and copy; the sampling tick holds the
// same mutex, so concurrent scrapes are race-free. Export is
// byte-deterministic for a deterministic run: rows are pure functions
// of simulated time. A nil Timeline is a valid no-op.
type Timeline struct {
	interval sim.Time

	cols []TimelineColumn // fixed at construction

	mu    sync.Mutex
	prev  []float64     // last cumulative value per column, rate columns only
	rows  []timelineRow // ring
	next  int
	count int
	total uint64 // rows ever sampled (dropped = total - count)
}

// TimelineColumn is one timeline column: Probe is sampled at each tick
// and stored as-is, or, with Rate set, as the per-second increase of
// its cumulative value since the previous tick.
type TimelineColumn struct {
	Name  string
	Probe func() float64
	Rate  bool
}

// timelineRow is one sampled snapshot: the simulated instant plus one
// value per column, in registration order.
type timelineRow struct {
	At sim.Time
	V  []float64
}

// timelineCapacity is how many rows a Timeline retains.
const timelineCapacity = 1024

// NewTimeline builds a timeline over cols sampling every interval of
// simulated time (default 1 ms), retaining the last timelineCapacity
// rows, and schedules its first sample one interval from now. It reads
// the rate columns' baselines at once, so call it from the simulation
// goroutine or before the scheduler runs.
func NewTimeline(sch *sim.Scheduler, interval sim.Time, cols []TimelineColumn) *Timeline {
	if interval <= 0 {
		interval = sim.Millisecond
	}
	t := &Timeline{
		interval: interval,
		cols:     cols,
		prev:     make([]float64, len(cols)),
		rows:     make([]timelineRow, timelineCapacity),
	}
	for i, c := range cols {
		if c.Rate {
			t.prev[i] = c.Probe()
		}
	}
	var tick func()
	tick = func() {
		t.sample(sch.Now())
		sch.After(t.interval, tick)
	}
	sch.After(t.interval, tick)
	return t
}

// cadence returns the sampling cadence.
func (t *Timeline) cadence() sim.Time {
	if t == nil {
		return 0
	}
	return t.interval
}

// sample records one row. Runs on the simulation goroutine.
func (t *Timeline) sample(at sim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := timelineRow{At: at, V: make([]float64, len(t.cols))}
	secs := t.interval.Seconds()
	for i, c := range t.cols {
		v := c.Probe()
		if c.Rate {
			row.V[i] = (v - t.prev[i]) / secs
			t.prev[i] = v
		} else {
			row.V[i] = v
		}
	}
	t.rows[t.next] = row
	t.next = (t.next + 1) % len(t.rows)
	if t.count < len(t.rows) {
		t.count++
	}
	t.total++
}

// columns returns the column names in row value order.
func (t *Timeline) columns() []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

// retainedRows returns the retained rows in chronological order (deep copy).
func (t *Timeline) retainedRows() []timelineRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowsLocked()
}

// rowsLocked is retainedRows with t.mu held.
func (t *Timeline) rowsLocked() []timelineRow {
	out := make([]timelineRow, 0, t.count)
	start := t.next - t.count
	if start < 0 {
		start += len(t.rows)
	}
	for i := 0; i < t.count; i++ {
		r := t.rows[(start+i)%len(t.rows)]
		out = append(out, timelineRow{At: r.At, V: append([]float64(nil), r.V...)})
	}
	return out
}

// Total returns how many rows were ever sampled (dropped rows included).
func (t *Timeline) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// timelineSchema is the header line's schema identifier.
const timelineSchema = "dtp-timeline/1"

// timelineHeader is the first line of a timeline JSONL dump; every
// following line is a BundleRow.
type timelineHeader struct {
	Schema     string   `json:"schema"`
	IntervalPs int64    `json:"interval_ps"`
	Columns    []string `json:"columns"`
	Rows       int      `json:"rows"`
	Total      uint64   `json:"total"`
	Dropped    uint64   `json:"dropped"`
}

// WriteJSONL writes the timeline as JSON Lines: one header line
// declaring the schema, cadence, columns, and drop accounting, then one
// line per retained row:
//
//	{"schema":"dtp-timeline/1","interval_ps":100000000,"columns":["bound_ticks",...],"rows":42,"total":42,"dropped":0}
//	{"t_ps":100000000,"v":[12,0.5,null]}
//
// NaN and ±Inf sample values render as null (JSON has no spelling for
// them); field order is fixed, so identical timelines serialize to
// identical bytes.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	// retainedRows and total come from one critical section: a sample landing
	// between two would make the header count more rows than total.
	t.mu.Lock()
	rows, total := t.rowsLocked(), t.total
	t.mu.Unlock()
	enc := newJSONLEncoder(w)
	if err := enc.Encode(timelineHeader{
		Schema: timelineSchema, IntervalPs: int64(t.interval), Columns: t.columns(),
		Rows: len(rows), Total: total, Dropped: total - uint64(len(rows)),
	}); err != nil {
		return fmt.Errorf("telemetry: timeline dump: %w", err)
	}
	for _, r := range rows {
		if err := enc.Encode(wireRow(r)); err != nil {
			return fmt.Errorf("telemetry: timeline dump: %w", err)
		}
	}
	return nil
}

// ServeHTTP serves the JSONL dump, so a Timeline mounts directly on an
// HTTP mux (dtpd's /timeline endpoint).
func (t *Timeline) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = t.WriteJSONL(w)
}
