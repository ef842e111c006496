package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"github.com/dtplab/dtp/internal/sim"
)

// FlightSchema is the bundle file's schema identifier.
const FlightSchema = "dtp-flight/1"

// FlightConfig configures a Recorder.
type FlightConfig struct {
	// Dir is where bundles are written (created if absent). Required.
	Dir string
	// Seed stamps every bundle and its filename, tying a bundle back to
	// the deterministic run that produced it.
	Seed int64
}

const (
	// traceDepth is how many trailing trace events a bundle embeds.
	traceDepth = 256

	// maxBundles caps how many bundles one run may write; further
	// triggers are counted as suppressed instead of flooding the disk
	// when a run melts down completely.
	maxBundles = 4

	// flightCooldown is the minimum simulated time between two bundles
	// for the same reason. A bound violation that fires on every audit
	// tick produces one bundle per cooldown window, not hundreds.
	flightCooldown = sim.Millisecond
)

// Recorder is the flight recorder: an always-on black box that, when a
// trigger fires (an armed trace kind, or an explicit Trigger call from
// e.g. a stale read or a failed chaos postcondition), dumps a causally
// ordered debug bundle — trailing trace events, a metrics scrape, the
// timeline window, and every registered state provider's view — to a
// seed-deterministic JSON file. The cost of the always-on part is
// whatever the tracer and timeline already cost; the recorder itself
// does nothing until a trigger fires.
//
// Trigger and the armed observer run on whichever goroutine records the
// event (the simulation goroutine in every current caller); a mutex
// serializes dumps so concurrent triggers cannot interleave files.
type Recorder struct {
	cfg FlightConfig
	reg *Registry
	tr  *Tracer
	tl  *Timeline
	now func() sim.Time

	mu         sync.Mutex
	states     []stateProvider
	lastByWhy  map[string]sim.Time
	firedByWhy map[string]bool
	bundles    []string
	suppressed uint64
	err        error
}

type stateProvider struct {
	name string
	fn   func() any
}

// NewRecorder builds a flight recorder writing into cfg.Dir. Any of
// reg, tr, tl may be nil — the corresponding bundle section is simply
// absent. now supplies the simulated clock for cooldown bookkeeping and
// bundle timestamps (nil means a frozen clock: the first trigger per
// reason dumps, repeats are cooldown-suppressed).
func NewRecorder(cfg FlightConfig, reg *Registry, tr *Tracer, tl *Timeline, now func() sim.Time) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: flight recorder needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: flight dir: %w", err)
	}
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	return &Recorder{
		cfg: cfg, reg: reg, tr: tr, tl: tl, now: now,
		lastByWhy:  make(map[string]sim.Time),
		firedByWhy: make(map[string]bool),
	}, nil
}

// AddState registers a named state provider, invoked at dump time on
// the triggering goroutine. Providers return any JSON-marshalable value
// (maps serialize with sorted keys, keeping bundles byte-deterministic).
func (r *Recorder) AddState(name string, fn func() any) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states = append(r.states, stateProvider{name: name, fn: fn})
}

// Arm installs a tracer observer that triggers a dump whenever one of
// the listed kinds is recorded (typically KindBoundViolation and
// KindPortDemoted). The event's kind name becomes the bundle reason and
// its Who the detail. No-op without a tracer.
func (r *Recorder) Arm(kinds ...Kind) {
	if r == nil || r.tr == nil || len(kinds) == 0 {
		return
	}
	var mask uint64
	for _, k := range kinds {
		mask |= 1 << k
	}
	r.tr.OnRecord(func(e Event) {
		if mask&(1<<e.Kind) != 0 {
			r.Trigger(e.Kind.String(), e.Who)
		}
	})
}

// Trigger requests a bundle dump for the given reason. Dumps are
// suppressed (and counted) when the per-reason cooldown has not elapsed
// or the run's bundle budget is spent, so callers may invoke it
// unconditionally on every suspicious event.
func (r *Recorder) Trigger(reason, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.now()
	if len(r.bundles) >= maxBundles {
		r.suppressed++
		return
	}
	if r.firedByWhy[reason] && at-r.lastByWhy[reason] < flightCooldown {
		r.suppressed++
		return
	}
	r.firedByWhy[reason] = true
	r.lastByWhy[reason] = at
	if err := r.dump(at, reason, detail); err != nil && r.err == nil {
		r.err = err
	}
}

// dump assembles and writes one bundle. Caller holds r.mu.
func (r *Recorder) dump(at sim.Time, reason, detail string) error {
	b := Bundle{
		Schema: FlightSchema,
		Seed:   r.cfg.Seed,
		Seq:    len(r.bundles),
		Reason: reason,
		Detail: detail,
		TPs:    int64(at),
	}
	if r.tr != nil {
		events := r.tr.Events()
		total := r.tr.Total()
		if len(events) > traceDepth {
			events = events[len(events)-traceDepth:]
		}
		bt := &BundleTrace{Total: total, Dropped: total - uint64(len(events))}
		bt.Events = make([]BundleEvent, len(events))
		for i, e := range events {
			bt.Events[i] = wireEvent(e)
		}
		b.Trace = bt
	}
	if r.reg != nil {
		var sb strings.Builder
		if err := WritePrometheus(&sb, r.reg); err == nil {
			b.Metrics = sb.String()
		}
	}
	if r.tl != nil {
		bt := &BundleTimeline{
			IntervalPs: int64(r.tl.Interval()),
			Columns:    r.tl.Columns(),
		}
		for _, row := range r.tl.Rows() {
			bt.Rows = append(bt.Rows, wireRow(row))
		}
		b.Timeline = bt
	}
	if len(r.states) > 0 {
		b.State = make(map[string]json.RawMessage, len(r.states))
		for _, sp := range r.states {
			raw, err := json.Marshal(sp.fn())
			if err != nil {
				raw = json.RawMessage(strconv.Quote("marshal error: " + err.Error()))
			}
			b.State[sp.name] = raw
		}
	}
	name := fmt.Sprintf("flight-%d-%02d-%s.json", r.cfg.Seed, b.Seq, reason)
	path := filepath.Join(r.cfg.Dir, name)
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: flight bundle: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: flight bundle: %w", err)
	}
	r.bundles = append(r.bundles, path)
	return nil
}

// Bundles returns the paths of the bundles written so far.
func (r *Recorder) Bundles() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.bundles...)
}

// Suppressed returns how many triggers were swallowed by the cooldown
// or the bundle budget.
func (r *Recorder) Suppressed() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppressed
}

// Err returns the first dump error, if any (a trigger never fails the
// run it is documenting).
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Bundle is the on-disk flight bundle. Field order (and json's sorted
// map keys) make the file byte-deterministic for a deterministic run.
type Bundle struct {
	Schema   string                     `json:"schema"`
	Seed     int64                      `json:"seed"`
	Seq      int                        `json:"seq"`
	Reason   string                     `json:"reason"`
	Detail   string                     `json:"detail,omitempty"`
	TPs      int64                      `json:"t_ps"`
	Trace    *BundleTrace               `json:"trace,omitempty"`
	Metrics  string                     `json:"metrics,omitempty"`
	Timeline *BundleTimeline            `json:"timeline,omitempty"`
	State    map[string]json.RawMessage `json:"state,omitempty"`
}

// BundleTrace is the bundle's embedded trace window.
type BundleTrace struct {
	Total   uint64        `json:"total"`
	Dropped uint64        `json:"dropped"`
	Events  []BundleEvent `json:"events"`
}

// BundleEvent is the wire form of a trace Event: one line of a JSONL
// dump (WriteEvents) and one element of a bundle's trace window.
type BundleEvent struct {
	Seq    uint64 `json:"seq"`
	TPs    int64  `json:"t_ps"`
	Kind   string `json:"kind"`
	Who    string `json:"who"`
	V1     int64  `json:"v1"`
	V2     int64  `json:"v2"`
	Detail string `json:"detail,omitempty"`
}

// wireEvent is the wire form of e.
func wireEvent(e Event) BundleEvent {
	return BundleEvent{
		Seq: e.Seq, TPs: int64(e.At), Kind: e.Kind.String(),
		Who: e.Who, V1: e.V1, V2: e.V2, Detail: e.Detail,
	}
}

// Event converts the wire form back; ok is false when the kind is one
// this build does not know.
func (w BundleEvent) Event() (_ Event, ok bool) {
	k, ok := KindFromString(w.Kind)
	return Event{
		Seq: w.Seq, At: sim.Time(w.TPs), Kind: k,
		Who: w.Who, V1: w.V1, V2: w.V2, Detail: w.Detail,
	}, ok
}

// BundleTimeline is the bundle's embedded timeline window.
type BundleTimeline struct {
	IntervalPs int64       `json:"interval_ps"`
	Columns    []string    `json:"columns"`
	Rows       []BundleRow `json:"rows"`
}

// BundleRow is the wire form of a TimelineRow: one line of a timeline
// JSONL dump and one row of a bundle's timeline window.
type BundleRow struct {
	TPs int64     `json:"t_ps"`
	V   []jsonNum `json:"v"`
}

// wireRow is the wire form of r.
func wireRow(r TimelineRow) BundleRow {
	br := BundleRow{TPs: int64(r.At), V: make([]jsonNum, len(r.V))}
	for i, v := range r.V {
		br.V[i] = jsonNum(v)
	}
	return br
}

// jsonNum is a float64 that marshals NaN/±Inf as null (encoding/json
// rejects them) and otherwise uses formatFloat's deterministic spelling.
type jsonNum float64

func (n jsonNum) MarshalJSON() ([]byte, error) {
	f := float64(n)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return []byte(formatFloat(f)), nil
}

func (n *jsonNum) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*n = jsonNum(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*n = jsonNum(f)
	return nil
}

// LoadBundle reads and validates a flight bundle: schema identifier,
// trace kinds, and timeline row/column consistency. Analysis tooling
// (dtptrace -bundle) uses it to reject truncated or foreign files
// before walking garbage.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: load bundle: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("telemetry: bundle %s: %w", filepath.Base(path), err)
	}
	if b.Schema != FlightSchema {
		return nil, fmt.Errorf("telemetry: bundle %s: unknown schema %q", filepath.Base(path), b.Schema)
	}
	if b.Trace != nil {
		for i, e := range b.Trace.Events {
			if _, ok := e.Event(); !ok {
				return nil, fmt.Errorf("telemetry: bundle %s: event %d: unknown kind %q", filepath.Base(path), i, e.Kind)
			}
		}
	}
	if b.Timeline != nil {
		for i, row := range b.Timeline.Rows {
			if len(row.V) != len(b.Timeline.Columns) {
				return nil, fmt.Errorf("telemetry: bundle %s: timeline row %d has %d values for %d columns",
					filepath.Base(path), i, len(row.V), len(b.Timeline.Columns))
			}
		}
	}
	return &b, nil
}
