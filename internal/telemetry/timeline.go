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
// Columns are registered before Start; each carries a probe closure
// that runs on the simulation goroutine (the sampling tick is a
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

	mu      sync.Mutex
	cols    []*timelineColumn
	rows    []TimelineRow // ring
	next    int
	count   int
	total   uint64 // rows ever sampled (dropped = total - count)
	started bool
}

type timelineColumn struct {
	name  string
	probe func() float64
	rate  bool
	prev  float64 // last cumulative value, rate columns only
}

// TimelineRow is one sampled snapshot: the simulated instant plus one
// value per column, in registration order.
type TimelineRow struct {
	At sim.Time
	V  []float64
}

// timelineCapacity is how many rows a Timeline retains.
const timelineCapacity = 1024

// NewTimeline builds a timeline sampling every interval of simulated
// time (default 1 ms), retaining the last timelineCapacity rows.
func NewTimeline(interval sim.Time) *Timeline {
	if interval <= 0 {
		interval = sim.Millisecond
	}
	return &Timeline{interval: interval}
}

// Interval returns the sampling cadence.
func (t *Timeline) Interval() sim.Time {
	if t == nil {
		return 0
	}
	return t.interval
}

// Gauge registers a column storing probe() at each sample. Registration
// after Start is ignored (columns are fixed once sampling begins, so
// every row has the same width).
func (t *Timeline) Gauge(name string, probe func() float64) {
	t.addColumn(name, probe, false)
}

// Rate registers a column storing the per-second increase of the
// cumulative probe() between samples.
func (t *Timeline) Rate(name string, probe func() float64) {
	t.addColumn(name, probe, true)
}

func (t *Timeline) addColumn(name string, probe func() float64, rate bool) {
	if t == nil || probe == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return
	}
	t.cols = append(t.cols, &timelineColumn{name: name, probe: probe, rate: rate})
}

// Start allocates the ring, primes rate baselines, and schedules the
// periodic sampling event. Call it from the simulation goroutine (or
// before the scheduler runs); calling twice is a no-op.
func (t *Timeline) Start(sch *sim.Scheduler) {
	if t == nil || sch == nil {
		return
	}
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.rows = make([]TimelineRow, timelineCapacity)
	for _, c := range t.cols {
		if c.rate {
			c.prev = c.probe()
		}
	}
	t.mu.Unlock()
	var tick func()
	tick = func() {
		t.sample(sch.Now())
		sch.After(t.interval, tick)
	}
	sch.After(t.interval, tick)
}

// sample records one row. Runs on the simulation goroutine.
func (t *Timeline) sample(at sim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := TimelineRow{At: at, V: make([]float64, len(t.cols))}
	secs := t.interval.Seconds()
	for i, c := range t.cols {
		v := c.probe()
		if c.rate {
			row.V[i] = (v - c.prev) / secs
			c.prev = v
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

// Columns returns the column names in registration (= row value) order.
func (t *Timeline) Columns() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.name
	}
	return out
}

// Rows returns the retained rows in chronological order (deep copy).
func (t *Timeline) Rows() []TimelineRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimelineRow, 0, t.count)
	start := t.next - t.count
	if start < 0 {
		start += len(t.rows)
	}
	for i := 0; i < t.count; i++ {
		r := t.rows[(start+i)%len(t.rows)]
		out = append(out, TimelineRow{At: r.At, V: append([]float64(nil), r.V...)})
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

// TimelineSchema is the header line's schema identifier.
const TimelineSchema = "dtp-timeline/1"

// TimelineHeader is the first line of a timeline JSONL dump; every
// following line is a BundleRow.
type TimelineHeader struct {
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
	t.mu.Lock()
	total := t.total
	t.mu.Unlock()
	rows := t.Rows()
	enc := newJSONLEncoder(w)
	if err := enc.Encode(TimelineHeader{
		Schema: TimelineSchema, IntervalPs: int64(t.interval), Columns: t.Columns(),
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
