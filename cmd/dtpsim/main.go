// Command dtpsim runs an ad-hoc DTP simulation on a chosen topology and
// reports synchronization quality over time — a quick way to explore
// the protocol outside the canned paper experiments.
//
// Usage:
//
//	dtpsim -topo tree -duration 500ms -watch 50ms
//	dtpsim -topo fattree:4 -load mtu -seed 9
//	dtpsim -topo chain:6 -beacon 1200
//
// With -sweep-seeds N (or -campaign grid.json) dtpsim becomes a
// campaign: N independent runs fan out across -jobs workers, per-run
// results stream as JSONL in grid order (byte-identical for any -jobs
// value), and an aggregate summary closes the run:
//
//	dtpsim -topo chain:5 -chaos examples/chaos/storm.json -duration 5ms -sweep-seeds 3 -jobs 4
//	dtpsim -campaign examples/campaign/smoke.json -jobs 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"github.com/dtplab/dtp"
	"github.com/dtplab/dtp/internal/campaign"
	"github.com/dtplab/dtp/internal/cliutil"
	"github.com/dtplab/dtp/internal/telemetry"
)

var (
	// -topo -seed -duration -jobs -metrics-out -trace-out -chaos
	shared = cliutil.Flags{Topo: "pair", Duration: 500 * time.Millisecond}

	watchFlag  = flag.Duration("watch", 100*time.Millisecond, "offset report interval")
	beaconFlag = flag.Uint64("beacon", 200, "beacon interval in ticks")
	loadFlag   = flag.String("load", "none", "link load: none | mtu | jumbo")
	wanderFlag = flag.Bool("wander", true, "enable oscillator wander")
	berFlag    = flag.Float64("ber", 0, "wire bit error rate")
	auditFlag  = flag.Bool("audit", false, "run the online 4TD-bound auditor; exit 1 on any violation")
	auditEvery = flag.Duration("audit-every", 100*time.Microsecond, "auditor check cadence (simulated time)")
	traceCap   = flag.Int("trace-cap", 1<<20, "trace ring capacity; firehose kinds evict one-time INIT events from small rings")
	sweepSeeds = flag.Int("sweep-seeds", 1, "campaign mode: run N consecutive seeds starting at -seed")
	gridFlag   = flag.String("campaign", "", "campaign mode: run the grid declared in this JSON file")
	timeSvc    = flag.Bool("time-service", false, "attach the serving plane: in campaign mode probe every served interval against ground truth; in single mode serve + drive in-sim read load")

	timelineOut   = flag.String("timeline-out", "", "single mode: write the run's windowed timeline as JSONL")
	timelineEvery = flag.Duration("timeline-every", 100*time.Microsecond, "timeline sampling cadence (simulated time)")
	flightDir     = flag.String("flight-dir", "", "arm the flight recorder: bundles land here (campaign mode: under per-run subdirectories)")
	pprofPrefix   = flag.String("pprof", "", "write <prefix>.cpu and <prefix>.allocs pprof profiles covering the whole run")
)

// stopProfiles flushes the -pprof profiles; exit and fatal route every
// termination after startProfiles through it, so profiles survive
// nonzero exits — a failed run is the one most worth profiling.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func fatal(code int, err error) {
	stopProfiles()
	cliutil.Fatal("dtpsim", code, err)
}

// startProfiles arms CPU and allocation profiling for the whole run
// (EXPERIMENTS.md "Profiling the engine"). The returned stop function
// writes <prefix>.allocs and finishes <prefix>.cpu.
func startProfiles(prefix string) func() {
	cpuF, err := os.Create(prefix + ".cpu")
	if err != nil {
		cliutil.Fatal("dtpsim", 1, err)
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cliutil.Fatal("dtpsim", 1, err)
	}
	return func() {
		pprof.StopCPUProfile()
		cpuF.Close()
		allocF, err := os.Create(prefix + ".allocs")
		if err != nil {
			cliutil.Fatal("dtpsim", 1, err)
		}
		defer allocF.Close()
		if err := pprof.Lookup("allocs").WriteTo(allocF, 0); err != nil {
			cliutil.Fatal("dtpsim", 1, err)
		}
		fmt.Fprintf(os.Stderr, "dtpsim: profiles written to %s.cpu and %s.allocs\n", prefix, prefix)
	}
}

func main() {
	shared.Register(flag.CommandLine,
		cliutil.FlagTopo|cliutil.FlagSeed|cliutil.FlagDuration|cliutil.FlagJobs|
			cliutil.FlagMetricsOut|cliutil.FlagTraceOut|cliutil.FlagChaos|
			cliutil.FlagHardened|cliutil.FlagDiscipline)
	flag.Parse()
	if err := shared.Validate(); err != nil {
		fatal(2, err)
	}
	if *watchFlag <= 0 {
		fatal(2, fmt.Errorf("-watch must be positive, got %v", *watchFlag))
	}
	if *pprofPrefix != "" {
		stopProfiles = startProfiles(*pprofPrefix)
	}
	if *sweepSeeds > 1 || *gridFlag != "" {
		runCampaign()
		stopProfiles()
		return
	}
	runSingle()
	stopProfiles()
}

// runCampaign expands the grid (from -campaign JSON, or from the
// regular flags with -sweep-seeds consecutive seeds), fans it out
// across -jobs workers, and streams deterministic JSONL per run
// followed by the aggregate JSON and a human-readable summary.
func runCampaign() {
	var g campaign.Grid
	if *gridFlag != "" {
		loaded, err := campaign.LoadGrid(*gridFlag)
		if err != nil {
			fatal(2, err)
		}
		g = *loaded
	} else {
		g = campaign.Grid{
			Name:        fmt.Sprintf("sweep-%s", shared.Topo),
			Topos:       []string{shared.Topo},
			Seeds:       campaign.SeedSweep(shared.Seed, *sweepSeeds),
			Loads:       []string{*loadFlag},
			Beacons:     []uint64{*beaconFlag},
			Durations:   []campaign.Duration{campaign.Duration(shared.Duration)},
			Wander:      *wanderFlag,
			BER:         *berFlag,
			TimeService: *timeSvc,
			AuditEvery:  campaign.Duration(*auditEvery),
		}
		if shared.Chaos != "" {
			g.Chaos = []string{shared.Chaos}
		}
		if shared.Hardened {
			g.Hardened = []bool{true}
		}
		if shared.Discipline != "" {
			g.Disciplines = []string{shared.Discipline}
		}
	}
	if *flightDir != "" {
		g.FlightDir = *flightDir
	}
	if err := g.Validate(); err != nil {
		fatal(2, err)
	}
	points := g.Expand()
	fmt.Fprintf(os.Stderr, "dtpsim: campaign %q: %d runs on %s workers\n",
		g.Name, len(points), jobsLabel(shared.Jobs))
	rep, err := campaign.Run(g, campaign.Options{
		Jobs: shared.Jobs,
		OnResult: func(r *campaign.Result) {
			if err := campaign.WriteResultJSON(os.Stdout, r); err != nil {
				fatal(1, err)
			}
		},
	})
	if err != nil {
		fatal(1, err)
	}
	if err := campaign.WriteAggregateJSON(os.Stdout, rep.Aggregate); err != nil {
		fatal(1, err)
	}
	fmt.Fprintln(os.Stderr, rep.Summary())
	if !rep.OK() {
		exit(1)
	}
}

func jobsLabel(jobs int) string {
	if jobs <= 0 {
		return "GOMAXPROCS"
	}
	return fmt.Sprint(jobs)
}

func runSingle() {
	g, err := shared.Topology()
	if err != nil {
		fatal(2, err)
	}
	scenario, err := shared.LoadChaos()
	if err != nil {
		fatal(2, err)
	}
	spec := campaign.Spec{
		Topology: g, Seed: shared.Seed, Beacon: *beaconFlag, Hardened: shared.Hardened,
		Wander: *wanderFlag, BER: *berFlag, Load: *loadFlag,
		// A scenario's zero-unexpected-violations claim needs the auditor.
		Audit: *auditFlag || scenario != nil, AuditEvery: *auditEvery,
		Scenario: scenario, SyncTimeout: time.Second,
		TimeService: *timeSvc, LoadQPS: 5000, // in-sim readers exercising the seqlock fast path
		Discipline: shared.Discipline,
		Timeline:   *timelineOut != "", TimelineEvery: *timelineEvery, FlightDir: *flightDir,
	}
	var reg *dtp.MetricsRegistry
	var tracer *dtp.Tracer
	if shared.MetricsOut != "" || shared.TraceOut != "" || spec.Audit ||
		*timelineOut != "" || *flightDir != "" {
		reg = dtp.NewMetricsRegistry()
		tracer = dtp.NewTracer(*traceCap)
		if shared.TraceOut != "" {
			tracer.SetKinds() // dump requested: include per-beacon firehose kinds
		}
		// The wall-clock rate stays off: -metrics-out must be deterministic.
		spec.Registry, spec.Tracer, spec.SchedMetrics = reg, tracer, true
	}
	wallStart := time.Now()
	rig, err := campaign.Arm(spec)
	if errors.Is(err, campaign.ErrNotSynced) {
		fatal(1, err)
	} else if err != nil {
		fatal(2, err)
	}
	sys, aud, eng, tp, rec := rig.Sys, rig.Auditor, rig.Chaos, rig.Plane, rig.Recorder
	defer sys.Close()

	fmt.Printf("topology %s: %d devices, %d links, diameter %d, bound 4TD = %.1f ns\n",
		shared.Topo, len(g.Nodes), len(g.Links), g.Diameter(), sys.BoundNanos())
	if aud != nil {
		fmt.Printf("auditor: checking every simulated %v against per-pair 4TD (+8T software margin)\n", *auditEvery)
	}
	if eng != nil {
		fmt.Printf("chaos: scenario %q armed: %d faults, verification deadline %v\n",
			scenario.Name, len(scenario.Faults), eng.Deadline().Std())
	}
	fmt.Printf("all %d links measured their one-way delays at t=%v\n", len(g.Links), sys.Now())
	switch *loadFlag {
	case "mtu":
		fmt.Println("links saturated with MTU frames (beacons confined to interpacket gaps)")
	case "jumbo":
		fmt.Println("links saturated with jumbo frames")
	}
	if tp != nil {
		fmt.Printf("time service: %s broadcasting UTC, serving %v\n", tp.Broadcaster(), tp.Hosts())
	}

	// Snapshot the trace now, while the one-shot INIT/synced events are
	// still in the ring: on long runs the beacon firehose evicts them
	// before the final dump, and offline analysis (dtptrace -assert-owd)
	// needs them. The snapshot is merged into the dump by sequence number.
	var earlyTrace []telemetry.Event
	if shared.TraceOut != "" {
		earlyTrace = tracer.Events()
	}

	fmt.Printf("%12s %14s %14s %10s\n", "t", "max offset", "bound", "ok")
	var worst int64
	for elapsed := time.Duration(0); elapsed < shared.Duration; elapsed += *watchFlag {
		sys.Run(*watchFlag)
		off := sys.MaxOffsetTicks()
		if off > worst {
			worst = off
		}
		fmt.Printf("%12v %8d ticks %8d ticks %10v\n",
			sys.Now(), off, sys.BoundTicks(), off <= sys.BoundTicks())
	}
	fmt.Printf("worst offset over run: %d ticks = %.1f ns (bound %.1f ns)\n",
		worst, float64(worst)*sys.TickNanos(), sys.BoundNanos())

	// Engine throughput: the whole run (build + sync + steady state) against
	// wall time — a live readout; the recorded figure is the benchmark's
	// sim.events_per_s (make benchmark-trace).
	wall := time.Since(wallStart).Seconds()
	events := sys.EventsProcessed()
	eventsSec := float64(events) / wall
	devSimPerWall := float64(len(g.Nodes)) * sys.Now().Seconds() / wall
	qs := sys.QueueStats()
	laneShare := 0.0
	if actorEvents := qs.LaneInserts + qs.LaneOverflows; actorEvents > 0 {
		laneShare = 100 * float64(qs.LaneInserts) / float64(actorEvents)
	}
	fmt.Printf("engine: %d events in %.2f s wall = %.0f events/sec (%.1f device-sim-seconds/wall-second); %.2f%% of actor events in FIFO lanes, %d overflowed, %d calendar rebuilds\n",
		events, wall, eventsSec, devSimPerWall, laneShare, qs.LaneOverflows, qs.CalendarRebuilds)
	if reg != nil {
		rate := reg.Gauge("dtp_sim_events_per_sec",
			"Simulation events dispatched per wall-clock second over the whole run (host-dependent).")
		// Host-dependent values stay out of deterministic artifacts, the
		// EnableSchedulerMetrics(false) policy: when -metrics-out or
		// -flight-dir is armed the gauge is exported at its zero value.
		if shared.MetricsOut == "" && *flightDir == "" {
			rate.Set(eventsSec)
		}
	}
	chaosErr := rig.VerifyChaos()
	if eng != nil {
		if chaosErr != nil {
			fmt.Fprintln(os.Stderr, "dtpsim:", chaosErr)
		}
		fmt.Println(eng.Summary())
	}
	if aud != nil {
		fmt.Println(aud.Summary())
	}
	if rej, quar := sys.ByzantineStats(); rej > 0 || quar > 0 {
		fmt.Printf("hardened: %d counter advances rejected, %d port quarantines\n", rej, quar)
	}
	if tp != nil {
		for _, h := range tp.Hosts() {
			if a, err := tp.Attribution(h); err == nil && a.Publishes > 0 {
				fmt.Printf("eps budget %s: %.0f ps served", h, a.TotalLastPs)
				for _, c := range a.Components {
					fmt.Printf("  %s %.0f%%", c.Name, c.Share*100)
				}
				fmt.Printf("  (dominant: %s)\n", a.Dominant)
			}
		}
	}
	if shared.MetricsOut != "" {
		if err := cliutil.WriteFile(shared.MetricsOut, func(w io.Writer) error {
			return dtp.WriteMetrics(w, reg)
		}); err != nil {
			fatal(1, err)
		}
		fmt.Printf("metrics written to %s\n", shared.MetricsOut)
	}
	if shared.TraceOut != "" {
		final := tracer.Events()
		var events []telemetry.Event
		for _, e := range earlyTrace {
			if len(final) == 0 || e.Seq < final[0].Seq {
				events = append(events, e)
			}
		}
		events = append(events, final...)
		total := tracer.Total()
		if err := cliutil.WriteFile(shared.TraceOut, func(w io.Writer) error {
			// The header's drop count is what the ring evicted beyond
			// the merged early+final window.
			if err := telemetry.WriteTraceHeader(w, len(events), total, total-uint64(len(events))); err != nil {
				return err
			}
			return telemetry.WriteEvents(w, events)
		}); err != nil {
			fatal(1, err)
		}
		fmt.Printf("trace written to %s (%d events, %d dropped)\n",
			shared.TraceOut, len(events), total-uint64(len(events)))
	}
	if *timelineOut != "" {
		if err := cliutil.WriteFile(*timelineOut, rig.Timeline.WriteJSONL); err != nil {
			fatal(1, err)
		}
		fmt.Printf("timeline written to %s (%d samples)\n", *timelineOut, rig.Timeline.Total())
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			fatal(1, err)
		}
		for _, b := range rec.Bundles() {
			fmt.Printf("flight bundle: %s\n", b)
		}
		if len(rec.Bundles()) == 0 {
			fmt.Printf("flight recorder armed, no triggers tripped\n")
		}
	}
	// The verdict is the campaign's, from the same fields: Result.OK()
	// knows that the windowed chaos verification replaces the
	// instantaneous bound check while faults are declared, and that a
	// served interval missing true time fails a fault-free run.
	res := campaign.Result{
		Point:  campaign.Point{Chaos: shared.Chaos},
		Synced: true, ChaosOK: chaosErr == nil, WithinBound: worst <= sys.BoundTicks(),
	}
	if aud != nil {
		res.AuditViolations = aud.Violations()
	}
	if tp != nil {
		for _, h := range tp.Hosts() {
			ld := tp.Load(h)
			res.TimeUncovered += ld.Reads() - ld.Errors() - ld.Covered()
		}
		if res.TimeUncovered > 0 {
			fmt.Fprintf(os.Stderr, "dtpsim: time service: %d served intervals missed true time\n", res.TimeUncovered)
		}
	}
	if !res.OK() {
		exit(1)
	}
}
