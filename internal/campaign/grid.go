// Package campaign is the multi-run fan-out layer: it expands a
// declarative grid (seeds × topologies × loads × beacon intervals ×
// durations × optional chaos scenarios) into independent runs, executes
// them across a bounded worker pool, and merges per-run Results in grid
// order — so the aggregate output is byte-identical whether the
// campaign ran on one worker or sixteen. Every run owns its scheduler
// and per-label RNG streams (a property the core simulator guarantees),
// which makes the fan-out embarrassingly parallel without sacrificing
// determinism.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/dtplab/dtp"
)

// Duration is a time.Duration that marshals to and from Go duration
// strings ("5ms") in grid JSON.
type Duration time.Duration

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("campaign: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("campaign: bad duration %s", b)
	}
	*d = Duration(n)
	return nil
}

// Std converts to a standard time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Grid declares a campaign: the cross product of every dimension below
// is one run. Empty dimensions default to a single neutral value, so a
// grid that only lists seeds sweeps seeds on the default topology.
type Grid struct {
	// Name labels the campaign in summaries and JSONL records.
	Name string `json:"name,omitempty"`

	// Topos are topology specs in the shared CLI syntax
	// ("pair | tree | star:N | chain:N | fattree:K"). Default: ["pair"].
	Topos []string `json:"topos,omitempty"`
	// Seeds are the deterministic run seeds. Default: [1].
	Seeds []uint64 `json:"seeds,omitempty"`
	// Loads are link-load presets: "none", "mtu" or "jumbo".
	// Default: ["none"].
	Loads []string `json:"loads,omitempty"`
	// Beacons are BEACON intervals in ticks. Default: [200].
	Beacons []uint64 `json:"beacons,omitempty"`
	// Durations are simulated measurement windows. Default: ["500ms"].
	Durations []Duration `json:"durations,omitempty"`
	// Chaos lists fault-injection scenario JSON paths; "" means no
	// faults. Default: [""].
	Chaos []string `json:"chaos,omitempty"`
	// Hardened sweeps the Byzantine-hardened protocol mode (bounded-jump
	// admission, quarantine, quorum combiner). Default: [false]. List
	// both values to measure an attack's blast radius with the defenses
	// off against the fabric's tolerance with them on.
	Hardened []bool `json:"hardened,omitempty"`
	// Liars sweeps the number of simultaneous Byzantine liar devices:
	// each run synthesizes that many KindLiar faults on devices chosen
	// by a deterministic stride across the topology's node list, so the
	// axis traces a tolerance curve (how many concurrent liars a mode
	// withstands) per topology. 0 means no synthesized liars; combine
	// with Hardened to compare the curve with defenses on and off.
	// Synthesized faults append to any Chaos scenario on the same
	// point. Default: [0].
	Liars []int `json:"liars,omitempty"`
	// Disciplines sweeps the daemon's software-clock estimator: each
	// non-empty spec ("ma", "pll:kp=0.7", "theilsen", "lad:dropk=2", …)
	// attaches a probe daemon to the run's first host and records its
	// precision/convergence into the Result's Daemon* fields. "" means
	// no daemon probe. Default: [""].
	Disciplines []string `json:"disciplines,omitempty"`

	// Wander enables oscillator temperature wander (10 ms interval,
	// 100 ppb steps — the dtpsim default) on every run.
	Wander bool `json:"wander,omitempty"`
	// TimeService attaches the serving plane (internal/timesvc) to every
	// run — a UTC broadcaster on the first host, a TimeService on each
	// other host — and probes every served clock at the sampling cadence,
	// recording interval widths and the earliest <= truth <= latest
	// verdict into the Result's Time* fields.
	TimeService bool `json:"time_service,omitempty"`
	// BER is the wire bit error rate applied to every run (with the
	// parity bit enabled when nonzero).
	BER float64 `json:"ber,omitempty"`
	// SamplePeriod is the offset sampling cadence inside each run
	// (default 100 µs simulated).
	SamplePeriod Duration `json:"sample_period,omitempty"`
	// AuditEvery is the online auditor cadence (default 100 µs).
	AuditEvery Duration `json:"audit_every,omitempty"`
	// SyncTimeout bounds how long each run may take to complete INIT
	// (default 1 s simulated).
	SyncTimeout Duration `json:"sync_timeout,omitempty"`

	// FlightDir, when set, arms observability on every run: a metrics
	// registry + tracer, a Timeline at the sampling cadence, and a
	// flight recorder whose bundles for run N land under
	// <FlightDir>/run-NNN/ next to that run's timeline.jsonl. Paths and
	// file bytes are pure functions of the grid point, so output is
	// identical across -jobs counts.
	FlightDir string `json:"flight_dir,omitempty"`
}

// Point is one fully resolved run of a campaign grid.
type Point struct {
	// Index is the run's position in grid order; results are always
	// merged by Index, never by completion order.
	Index int    `json:"index"`
	Topo  string `json:"topo"`
	Seed  uint64 `json:"seed"`
	Load  string `json:"load"`
	// Beacon is the BEACON interval in ticks.
	Beacon   uint64   `json:"beacon"`
	Duration Duration `json:"duration"`
	// Chaos is the scenario path ("" = no fault injection).
	Chaos string `json:"chaos,omitempty"`
	// Hardened selects the Byzantine-hardened protocol mode.
	Hardened bool `json:"hardened,omitempty"`
	// Liars is how many synthesized simultaneous Byzantine liar devices
	// this run carries (see Grid.Liars).
	Liars int `json:"liars,omitempty"`
	// Discipline is the daemon-probe estimator spec ("" = no probe).
	Discipline string `json:"discipline,omitempty"`
}

func (p Point) String() string {
	s := fmt.Sprintf("topo=%s seed=%d load=%s beacon=%d dur=%v",
		p.Topo, p.Seed, p.Load, p.Beacon, p.Duration.Std())
	if p.Chaos != "" {
		s += " chaos=" + p.Chaos
	}
	if p.Hardened {
		s += " hardened"
	}
	if p.Liars > 0 {
		s += fmt.Sprintf(" liars=%d", p.Liars)
	}
	if p.Discipline != "" {
		s += " discipline=" + p.Discipline
	}
	return s
}

// withDefaults fills empty dimensions and scalar knobs.
func (g Grid) withDefaults() Grid {
	if len(g.Topos) == 0 {
		g.Topos = []string{"pair"}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{1}
	}
	if len(g.Loads) == 0 {
		g.Loads = []string{"none"}
	}
	if len(g.Beacons) == 0 {
		g.Beacons = []uint64{200}
	}
	if len(g.Durations) == 0 {
		g.Durations = []Duration{Duration(500 * time.Millisecond)}
	}
	if len(g.Chaos) == 0 {
		g.Chaos = []string{""}
	}
	if len(g.Hardened) == 0 {
		g.Hardened = []bool{false}
	}
	if len(g.Liars) == 0 {
		g.Liars = []int{0}
	}
	if len(g.Disciplines) == 0 {
		g.Disciplines = []string{""}
	}
	if g.SamplePeriod <= 0 {
		g.SamplePeriod = Duration(100 * time.Microsecond)
	}
	if g.AuditEvery <= 0 {
		g.AuditEvery = Duration(100 * time.Microsecond)
	}
	if g.SyncTimeout <= 0 {
		g.SyncTimeout = Duration(time.Second)
	}
	return g
}

// Validate rejects malformed dimensions before any run starts. A zero
// cadence means the default; a negative one is an error, not a default.
func (g Grid) Validate() error {
	for _, c := range []struct {
		name string
		d    Duration
	}{{"sample_period", g.SamplePeriod}, {"audit_every", g.AuditEvery}, {"sync_timeout", g.SyncTimeout}} {
		if c.d < 0 {
			return fmt.Errorf("campaign: %s must be >= 0 (0 = default), got %v", c.name, c.d.Std())
		}
	}
	g = g.withDefaults()
	for _, l := range g.Loads {
		switch l {
		case "none", "mtu", "jumbo":
		default:
			return fmt.Errorf("campaign: unknown load %q (want none|mtu|jumbo)", l)
		}
	}
	for _, b := range g.Beacons {
		if b == 0 {
			return fmt.Errorf("campaign: beacon interval must be positive")
		}
	}
	for _, d := range g.Durations {
		if d <= 0 {
			return fmt.Errorf("campaign: duration must be positive, got %v", d.Std())
		}
	}
	if g.BER < 0 {
		return fmt.Errorf("campaign: BER must be >= 0, got %g", g.BER)
	}
	for _, l := range g.Liars {
		if l < 0 {
			return fmt.Errorf("campaign: liar count must be >= 0, got %d", l)
		}
	}
	for _, spec := range g.Disciplines {
		if spec == "" {
			continue
		}
		if _, err := dtp.ParseDiscipline(spec); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	return nil
}

// Expand resolves the grid into its runs, in grid order: topology
// outermost, then load, beacon, duration, chaos, hardened, liars,
// discipline, and seed innermost — so seed sweeps of one configuration
// are contiguous.
func (g Grid) Expand() []Point {
	g = g.withDefaults()
	var pts []Point
	for _, topo := range g.Topos {
		for _, load := range g.Loads {
			for _, beacon := range g.Beacons {
				for _, dur := range g.Durations {
					for _, chaos := range g.Chaos {
						for _, hardened := range g.Hardened {
							for _, liars := range g.Liars {
								for _, disc := range g.Disciplines {
									for _, seed := range g.Seeds {
										pts = append(pts, Point{
											Index: len(pts), Topo: topo, Seed: seed,
											Load: load, Beacon: beacon,
											Duration: dur, Chaos: chaos,
											Hardened: hardened, Liars: liars,
											Discipline: disc,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// LoadGrid reads and validates a grid from a JSON file.
func LoadGrid(path string) (*Grid, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var g Grid
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("campaign: parsing %s: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return &g, nil
}

// SeedSweep builds the grid behind `dtpsim -sweep-seeds N`: n
// consecutive seeds starting at base, one topology/load/beacon/duration
// configuration.
func SeedSweep(base uint64, n int) []uint64 {
	if n < 1 {
		n = 1
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}
