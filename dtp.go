// Package dtp is a simulation-backed implementation of the Datacenter
// Time Protocol (Lee, Wang, Shrivastav, Weatherspoon — SIGCOMM 2016):
// decentralized clock synchronization running inside the Ethernet
// physical layer, achieving a bounded precision of 4TD (T = 6.4 ns at
// 10 GbE, D = network diameter in hops) with zero packet overhead.
//
// The package wraps the full-fidelity model in internal/ (64b/66b PCS,
// oscillators with ppm skew and wander, clock-domain crossings, wire
// propagation, the DTP state machines, and software daemons) behind a
// small API:
//
//	sys, _ := dtp.New(dtp.PaperTree(), dtp.WithSeed(7))
//	sys.Start()
//	if err := sys.RunUntilSynced(time.Second); err != nil { ... }
//	sys.Run(100 * time.Millisecond)
//	fmt.Printf("max offset: %.1f ns (bound %.1f ns)\n",
//	        sys.MaxOffsetNanos(), sys.BoundNanos())
//
// Everything is deterministic given the seed. Simulated time is decoupled
// from wall time: Run(d) advances the virtual clock by d.
package dtp

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/chaos"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/daemon"
	"github.com/dtplab/dtp/internal/discipline"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// Topology describes the devices and cables of a DTP network.
type Topology = topo.Graph

// Speed identifies an Ethernet line rate (re-exported so callers never
// need the internal packages).
type Speed = phy.Speed

// Supported line rates (Table 2 of the paper).
const (
	Speed1G   = phy.Speed1G
	Speed10G  = phy.Speed10G
	Speed40G  = phy.Speed40G
	Speed100G = phy.Speed100G
)

// Pair returns two directly connected hosts (10 m cable).
func Pair() Topology { return topo.Pair() }

// PaperTree returns the SIGCOMM'16 evaluation topology (Figure 5): root
// switch s0, switches s1–s3, hosts s4–s11.
func PaperTree() Topology { return topo.PaperTree() }

// Chain returns a linear host–switch–…–host chain with the given number
// of hops.
func Chain(hops int) Topology { return topo.Chain(hops) }

// FatTree returns a k-ary fat-tree (k even): k^3/4 hosts, 6-hop
// diameter for k >= 4.
func FatTree(k int) Topology { return topo.FatTree(k) }

// maxDevices caps the device count of a topology ParseTopology
// builds. Every device carries ports, an oscillator and its share of
// pending events, so a spec far past this (fattree:512 is 33.9 M
// devices) exhausts memory before the first event instead of failing
// with a message. The cap still admits fattree:64 (70 656 devices).
const maxDevices = 100_000

// ParseTopology parses the CLI topology syntax shared by cmd/dtpsim and
// cmd/dtptrace: "pair | tree | star:N | chain:N | fattree:K", with at
// most maxDevices devices.
func ParseTopology(spec string) (Topology, error) {
	name, arg, _ := strings.Cut(spec, ":")
	n := 0
	if arg != "" {
		var err error
		if n, err = strconv.Atoi(arg); err != nil {
			return Topology{}, fmt.Errorf("dtp: bad topology arg %q", arg)
		}
	}
	// Size checks happen here, not in the builders, so a bad CLI spec
	// becomes an error message instead of a panic stack. The device
	// count is a float64 so that no argument overflows it.
	var devices float64
	var build func() Topology
	switch name {
	case "pair", "tree":
		if arg != "" {
			return Topology{}, fmt.Errorf("dtp: topology %q takes no argument, got %q", name, arg)
		}
		if name == "pair" {
			return Pair(), nil
		}
		return PaperTree(), nil
	case "star":
		if arg == "" {
			n = 8
		}
		if n < 1 {
			return Topology{}, fmt.Errorf("dtp: star needs at least 1 client, got %d", n)
		}
		devices, build = float64(n)+2, func() Topology { return topo.Star(n) }
	case "chain":
		if arg == "" {
			n = 4
		}
		if n < 1 {
			return Topology{}, fmt.Errorf("dtp: chain needs at least 1 hop, got %d", n)
		}
		devices, build = float64(n)+1, func() Topology { return Chain(n) }
	case "fattree":
		if arg == "" {
			n = 4
		}
		if n < 2 || n%2 != 0 {
			return Topology{}, fmt.Errorf("dtp: fat-tree arity must be even and >= 2, got %d", n)
		}
		k := float64(n) // k³/4 hosts plus 5k²/4 switches
		devices, build = k*k*k/4+5*k*k/4, func() Topology { return FatTree(n) }
	default:
		return Topology{}, fmt.Errorf("dtp: unknown topology %q", name)
	}
	if devices > maxDevices {
		return Topology{}, fmt.Errorf("dtp: topology %q has %.0f devices, more than the %d this simulator builds",
			spec, devices, maxDevices)
	}
	return build(), nil
}

// Option configures a System. The With* options are the public API, so
// each stays even where every caller in this module passes one value.
type Option func(*config)

type config struct {
	seed       uint64
	cfg        core.Config
	ppm        map[string]float64
	daemon     daemon.Config
	discipline discipline.Config
	mixed      []LinkSpeed
	reg        *telemetry.Registry
	tracer     *telemetry.Tracer
}

// WithSeed sets the deterministic run seed (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithBeaconInterval sets the resynchronization period in ticks
// (default 200; the 4T bound analysis requires < 5000).
func WithBeaconInterval(ticks uint64) Option {
	return func(c *config) { c.cfg.BeaconIntervalTicks = ticks }
}

// LinkSpeed assigns an Ethernet speed to the cable between two named
// adjacent devices.
type LinkSpeed struct {
	A, B  string
	Speed Speed
}

// WithMixedSpeeds builds a mixed-rate network (§7 of the paper): the
// listed cables run at their assigned speeds, every other cable at
// 10 GbE, and all counters advance in 0.32 ns base units. One tick then
// means one base unit; the per-link bound is 4 port cycles (4 × the
// speed's Delta units). The base-unit clocking replaces WithSpeed's,
// wherever either option stands in the list.
func WithMixedSpeeds(links ...LinkSpeed) Option {
	return func(c *config) { c.mixed = append([]LinkSpeed{}, links...) }
}

// WithSpeed selects the Ethernet speed; counters switch to 0.32 ns base
// units so mixed reporting stays consistent (Table 2 of the paper).
func WithSpeed(s Speed) Option {
	return func(c *config) { c.cfg.SetSpeed(phy.ProfileFor(s)) }
}

// WithWander enables oscillator temperature wander: a random-walk step
// of the given ppb standard deviation every interval.
func WithWander(interval time.Duration, stepPPB float64) Option {
	return func(c *config) {
		c.cfg.WanderInterval = sim.FromStd(interval)
		c.cfg.WanderStepPPB = stepPPB
	}
}

// WithBER sets the wire bit error rate (802.3 objective: 1e-12).
func WithBER(ber float64) Option {
	return func(c *config) { c.cfg.BER = ber }
}

// WithParity enables the parity bit over beacon LSBs.
func WithParity() Option {
	return func(c *config) { c.cfg.Parity = true }
}

// WithPPM pins named devices' oscillator offsets in ppm (|ppm| <= 100);
// unpinned devices draw uniformly from ±100 ppm.
func WithPPM(byName map[string]float64) Option {
	return func(c *config) { c.ppm = byName }
}

// WithHardened enables the Byzantine-hardened protocol mode: per-link
// bounded-jump admission of remote counters, quarantine with a re-INIT
// escape hatch for peers that keep failing it, and a quorum combiner
// gating large session-initial adoptions. On a fault-free network the
// defenses never fire and runs are tick-identical to plain mode, and an
// untraced run takes the same engine path in both modes (wherever
// beacons come sooner than a quarantine cooldown), so a fault-free
// hardened run costs what a plain one does; the trade-off is
// that long-diverged live partitions no longer auto-merge (see
// DESIGN.md "Threat model & hardened mode").
func WithHardened() Option {
	return func(c *config) { c.cfg.Hardened = true }
}

// WithMaster enables the §5.4 extension: instead of max-coupling,
// devices form a spanning tree rooted at the named device and follow
// its clock — jumping forward when behind, stalling when ahead. Use it
// when one device has a reliable oscillator (or external time source)
// that should set the network's rate.
func WithMaster(root string) Option {
	return func(c *config) {
		c.cfg.Master = root
	}
}

// MetricsRegistry holds live metrics (atomic counters, gauges, fixed-
// bucket histograms) exportable in Prometheus text format.
type MetricsRegistry = telemetry.Registry

// Tracer records typed protocol events (state transitions, beacons,
// counter jumps, link up/down, ...) into a bounded ring buffer,
// exportable as JSONL.
type Tracer = telemetry.Tracer

// NewMetricsRegistry returns an empty registry for WithTelemetry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.New() }

// NewTracer returns a tracer keeping the last capacity events
// (default 8192 when capacity <= 0) for WithTelemetry.
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// WithTelemetry instruments the network (and any daemons attached
// later) with a metrics registry and/or event tracer. Either argument
// may be nil. Beacon-rate events are staged in plain counters and folded
// into the registry once per simulated millisecond. A tracer also keeps
// each beacon's arrival a scheduler event of its own (no device inbox),
// so a traced run does more work than an untraced one. The cost is
// measured, not bounded (ROADMAP items 8 and 9).
func WithTelemetry(reg *MetricsRegistry, tr *Tracer) Option {
	return func(c *config) { c.reg, c.tracer = reg, tr }
}

// WriteMetrics renders the registry in Prometheus text exposition
// format. Output is byte-stable for a given registry state.
func WriteMetrics(w io.Writer, reg *MetricsRegistry) error {
	return telemetry.WritePrometheus(w, reg)
}

// TelemetryHandler serves /metrics (Prometheus) and /trace (JSONL).
func TelemetryHandler(reg *MetricsRegistry, tr *Tracer) http.Handler {
	return telemetry.Handler(reg, tr)
}

// System is a running DTP network simulation.
type System struct {
	sch *sim.Scheduler
	net *core.Network
	cfg config

	// Attached lifecycle objects, stopped by Close.
	auditors   []*Auditor
	daemons    []*Daemon
	timeplanes []*TimePlane
	closed     bool

	// timeline is the last System.Timeline, the default bundled into
	// FlightRecorder dumps.
	timeline *Timeline
}

// New builds a System over the topology.
func New(t Topology, opts ...Option) (*System, error) {
	c := config{seed: 1, cfg: core.DefaultConfig(), daemon: daemon.DefaultConfig()}
	for _, o := range opts {
		o(&c)
	}
	sch := sim.NewScheduler()
	coreOpts := []core.Option{core.WithTelemetry(c.reg, c.tracer)}
	if c.ppm != nil {
		coreOpts = append(coreOpts, core.WithPPM(c.ppm))
	}
	if c.mixed != nil {
		// Only the clocking is mixed-speed specific; every other option
		// keeps what it set, whichever side of WithMixedSpeeds it stood.
		m := core.MixedSpeedConfig()
		c.cfg.Profile, c.cfg.UnitsPerTick = m.Profile, m.UnitsPerTick
		c.cfg.AlphaUnits, c.cfg.GuardUnits = m.AlphaUnits, m.GuardUnits
		c.cfg.FragmentedMessages = m.FragmentedMessages
		byLink := map[int]phy.Speed{}
		for _, ls := range c.mixed {
			idx, err := t.LinkBetween(ls.A, ls.B)
			if err != nil {
				return nil, err
			}
			byLink[idx] = ls.Speed
		}
		coreOpts = append(coreOpts, core.WithLinkSpeeds(byLink))
	}
	net, err := core.NewNetwork(sch, c.seed, t, c.cfg, coreOpts...)
	if err != nil {
		return nil, err
	}
	return &System{sch: sch, net: net, cfg: c}, nil
}

// Start brings all links up; the INIT handshakes begin.
func (s *System) Start() { s.net.Start() }

// Run advances simulated time by d.
func (s *System) Run(d time.Duration) { s.sch.RunFor(sim.FromStd(d)) }

// Now returns the current simulated time since start.
func (s *System) Now() time.Duration { return s.sch.Now().Std() }

// RunUntilSynced advances time until every link has measured its delay
// and entered the BEACON phase, or fails once max simulated time has
// elapsed. The final step is clamped to the deadline, so the scheduler
// never overshoots max (stepping a full millisecond past it, as earlier
// versions did) and the error reports the exact simulated time spent.
func (s *System) RunUntilSynced(max time.Duration) error {
	start := s.sch.Now()
	deadline := start + sim.FromStd(max)
	for !s.net.AllSynced() {
		now := s.sch.Now()
		if now >= deadline {
			return fmt.Errorf("dtp: network not synchronized after %v (simulated)", (now - start).Std())
		}
		step := sim.Millisecond
		if remaining := deadline - now; remaining < step {
			step = remaining
		}
		s.sch.RunFor(step)
	}
	return nil
}

// TickNanos returns the duration of one counter unit in nanoseconds.
func (s *System) TickNanos() float64 {
	cfg := s.net.Config()
	return float64(cfg.UnitFs()) / 1e6
}

// Counter returns the named device's DTP global counter.
func (s *System) Counter(device string) (uint64, error) {
	d, err := s.net.DeviceByName(device)
	if err != nil {
		return 0, err
	}
	return d.GlobalCounter(), nil
}

// OffsetTicks returns the ground-truth counter difference a-b at the
// current instant, in counter units.
func (s *System) OffsetTicks(a, b string) (int64, error) {
	da, err := s.net.DeviceByName(a)
	if err != nil {
		return 0, err
	}
	db, err := s.net.DeviceByName(b)
	if err != nil {
		return 0, err
	}
	return s.net.TrueOffsetUnits(da.ID(), db.ID()), nil
}

// MaxOffsetTicks returns the worst ground-truth offset across all
// device pairs, in counter units.
func (s *System) MaxOffsetTicks() int64 { return s.net.MaxPairwiseOffset() }

// MaxOffsetNanos returns the worst pairwise offset in nanoseconds.
func (s *System) MaxOffsetNanos() float64 {
	return float64(s.MaxOffsetTicks()) * s.TickNanos()
}

// BoundTicks returns the paper's 4TD precision bound in counter units.
func (s *System) BoundTicks() int64 { return s.net.BoundUnits() }

// BoundNanos returns 4TD in nanoseconds.
func (s *System) BoundNanos() float64 {
	return float64(s.BoundTicks()) * s.TickNanos()
}

// EventsProcessed returns the number of scheduler events dispatched
// since construction — the numerator of dtpsim's `engine:` line and of
// the benchmark's sim.events_per_s.
func (s *System) EventsProcessed() uint64 { return s.sch.Processed() }

// QueueStats returns the scheduler's report on how it filed those
// events (FIFO lanes vs. the heap). Deterministic per seed.
func (s *System) QueueStats() sim.QueueStats { return s.sch.QueueStats() }

// ByzantineStats reports the hardened-mode defense activity so far:
// remote counter advances refused by bounded-jump admission, and ports
// quarantined after repeated rejections. Both are zero on honest runs
// and always zero when the System was not built WithHardened.
func (s *System) ByzantineStats() (rejected, quarantined uint64) {
	return s.net.ByzantineStats()
}

// OnOffsetSample registers a callback receiving every protocol offset
// measurement (t2 - t1 - OWD, in units) with the observing link
// direction named "receiver-sender". The samples of one link direction
// arrive in time order; those of different directions may interleave
// out of it. fn may run after its sample's instant (the engine applies
// beacons lazily), so it must neither read nor change the System:
// record what it is given, and read the System between runs.
func (s *System) OnOffsetSample(fn func(pair string, offsetTicks int64)) {
	s.net.OnOffset = func(rx *core.Port, _ sim.Time, off int64) { fn(rx.PairName(), off) }
}

// SetUniformLoad saturates every link with back-to-back frames of the
// given size, confining DTP messages to interpacket gaps; a size of 0
// clears the load.
func (s *System) SetUniformLoad(frameOctets int) { s.net.SetLoad(frameOctets) }

// ClearLoad returns every link to idle.
func (s *System) ClearLoad() { s.net.SetLoad(0) }

// CutLink tears down the cable between two adjacent devices (both
// directions), e.g. to create a partition.
func (s *System) CutLink(a, b string) error {
	i, err := s.net.Graph.LinkBetween(a, b)
	if err != nil {
		return err
	}
	s.net.SetLinkDown(i)
	return nil
}

// RestoreLink re-plugs a cut cable; the ports re-run INIT and the
// subnets re-merge via BEACON-JOIN.
func (s *System) RestoreLink(a, b string) error {
	i, err := s.net.Graph.LinkBetween(a, b)
	if err != nil {
		return err
	}
	s.net.SetLinkUp(i)
	return nil
}

// MeasuredOWDTicks returns the one-way delay the a->b port measured
// during INIT, in counter units (-1 before INIT completes).
func (s *System) MeasuredOWDTicks(a, b string) (int64, error) {
	da, err := s.net.DeviceByName(a)
	if err != nil {
		return 0, err
	}
	p, err := da.PortTo(b)
	if err != nil {
		return 0, err
	}
	return p.OWDUnits(), nil
}

// Auditor is the online 4TD-bound auditor from internal/audit: it
// snapshots every device's counter at a fixed simulated cadence and
// verifies each pair against its live hop-distance bound, emitting
// bound_violation trace events with causal context on breach.
type Auditor = audit.Auditor

// AuditOptions configures the online auditor attached by Audit. The
// zero value selects every default.
type AuditOptions struct {
	// Interval is the simulated check cadence (0 = the 100 µs default).
	Interval time.Duration
}

// Audit attaches and starts an online precision auditor checking every
// device pair at the configured cadence. When the System was built
// WithTelemetry, audit counters, worst-offset/min-slack gauges,
// time-to-sync, and reconvergence metrics land in the registry, and
// violations emit tracer events. The auditor is stopped by Close.
func (s *System) Audit(o AuditOptions) *Auditor {
	a := audit.New(s.net, audit.Config{Interval: sim.FromStd(o.Interval)}, s.cfg.reg, s.cfg.tracer)
	s.auditors = append(s.auditors, a)
	return a
}

// EnableSchedulerMetrics exports the event loop's own throughput
// (events processed, queue depth and high water, a depth histogram)
// through the WithTelemetry registry; every figure is deterministic per
// seed, so metric dumps stay byte-stable.
func (s *System) EnableSchedulerMetrics() {
	telemetry.InstrumentScheduler(s.cfg.reg, s.sch)
}

// Daemon is a software clock served by the DTP daemon on one host
// (§5.1): a TSC-interpolated estimate of the NIC's DTP counter.
type Daemon struct {
	d *daemon.Daemon
}

// DaemonOptions configures the software daemon attached by Daemon.
type DaemonOptions struct {
	// Host names the device the daemon reads over (simulated) PCIe.
	Host string
	// CalInterval is the PCIe calibration cadence (the paper uses
	// ~1 s; shorter values suit compressed simulations; 0 = default).
	CalInterval time.Duration
	// Discipline selects the software-clock estimator for this daemon.
	// The zero value inherits the System's WithDiscipline setting
	// (itself defaulting to the paper's moving average).
	Discipline DisciplineConfig
}

// Daemon starts a DTP software daemon (§5.1) on the named host: a
// TSC-interpolated estimate of the NIC's DTP counter. The daemon is
// stopped by Close.
func (s *System) Daemon(o DaemonOptions) (*Daemon, error) {
	dev, err := s.net.DeviceByName(o.Host)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg.daemon
	if o.CalInterval > 0 {
		cfg.CalInterval = sim.FromStd(o.CalInterval)
	}
	dc := o.Discipline
	if dc == (DisciplineConfig{}) {
		dc = s.cfg.discipline
	}
	d, err := daemon.Attach(dev, daemon.Options{Config: cfg, Discipline: dc},
		s.cfg.seed+uint64(dev.ID())+1000, s.cfg.reg, s.cfg.tracer)
	if err != nil {
		return nil, err
	}
	wrapped := &Daemon{d: d}
	s.daemons = append(s.daemons, wrapped)
	return wrapped, nil
}

// Counter returns the daemon's current get_DTP_counter() estimate in
// counter units (fractional).
func (d *Daemon) Counter() float64 { return d.d.Estimate() }

// OffsetTicks returns the daemon's current error versus the hardware
// counter, in units.
func (d *Daemon) OffsetTicks() float64 { return d.d.OffsetUnits() }

// OffsetHistogram returns the distribution of OffsetTicks sampled at
// every calibration (nil unless the System was built WithTelemetry
// with a registry).
func (d *Daemon) OffsetHistogram() *telemetry.Histogram { return d.d.OffsetHistogram() }

// Discipline returns the active estimator's kind ("ma", "pll",
// "theilsen" or "lad").
func (d *Daemon) Discipline() string { return d.d.Discipline() }

// DroppedSamples returns how many calibration samples the discipline's
// outlier logic has rejected.
func (d *Daemon) DroppedSamples() uint64 { return d.d.DroppedSamples() }

// ErrorBoundTicks returns the discipline's self-reported bound on the
// current estimate's error, in ticks (+Inf before the first
// calibration). The serving plane folds it into interval widths.
func (d *Daemon) ErrorBoundTicks() float64 { return d.d.EstimateErrorUnits() }

// RatioPPM returns the estimated counter-per-TSC frequency ratio as a
// ppm deviation from nominal.
func (d *Daemon) RatioPPM() float64 {
	dev := d.d.Device()
	nominal := 1e3 / float64(dev.Clock().NominalPeriodFs())
	return (d.d.Ratio()/nominal - 1) * 1e6
}

// Graph exposes the topology for inspection.
func (s *System) Graph() Topology { return s.net.Graph }

// Devices returns the device names in topology order.
func (s *System) Devices() []string {
	out := make([]string, len(s.net.Graph.Nodes))
	for i, n := range s.net.Graph.Nodes {
		out[i] = n.Name
	}
	return out
}

// ChaosScenario is a declarative fault-injection campaign (see
// internal/chaos): link flaps, BER bursts and degradation, grey
// failures, oscillator steps and ramps, device crash/restart.
type ChaosScenario = chaos.Scenario

// ChaosFault is one fault inside a ChaosScenario.
type ChaosFault = chaos.Fault

// ChaosDuration is a fault timestamp/duration; it marshals to and from
// Go duration strings in scenario JSON.
type ChaosDuration = chaos.Duration

// ChaosD converts a wall-style duration into a scenario field value.
func ChaosD(d time.Duration) ChaosDuration { return chaos.D(sim.FromStd(d)) }

// ChaosEngine compiles a ChaosScenario into scheduler events and
// verifies the campaign's postconditions.
type ChaosEngine = chaos.Engine

// LoadChaosScenario reads and validates a scenario JSON file
// (the format behind dtpsim -chaos).
func LoadChaosScenario(path string) (*ChaosScenario, error) { return chaos.Load(path) }

// ChaosOptions configures the fault-injection engine attached by Chaos.
type ChaosOptions struct {
	// Scenario is the declarative fault campaign to arm (required).
	Scenario *ChaosScenario
	// Auditor, when set, receives each fault's expected-degradation
	// window so Verify can require zero violations outside declared
	// windows.
	Auditor *Auditor
}

// Chaos binds a fault-injection scenario to the system: every fault is
// resolved against the topology and scheduled, chaos metrics and trace
// events flow into the System's telemetry (when built WithTelemetry).
// Call before or after Start; run the system past engine.Deadline()
// and then engine.Verify().
func (s *System) Chaos(o ChaosOptions) (*ChaosEngine, error) {
	if o.Scenario == nil {
		return nil, fmt.Errorf("dtp: ChaosOptions.Scenario is required")
	}
	return chaos.NewEngine(s.net, o.Scenario, s.cfg.seed, s.cfg.reg, s.cfg.tracer, o.Auditor)
}

// Close stops everything the System started on top of the simulation —
// attached auditors and daemons — leaving the network and scheduler
// intact for inspection. It is idempotent; a closed System can still
// be read (counters, offsets, graphs) but should not be advanced.
func (s *System) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, tp := range s.timeplanes {
		tp.stop()
	}
	for _, a := range s.auditors {
		a.Stop()
	}
	for _, d := range s.daemons {
		d.d.Stop()
	}
	return nil
}

// RunUntil advances simulated time to the given absolute simulated
// instant (no-op if already past), e.g. a ChaosEngine deadline.
func (s *System) RunUntil(t sim.Time) {
	if t > s.sch.Now() {
		s.sch.Run(t)
	}
}
