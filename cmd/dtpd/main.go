// Command dtpd demonstrates the software story of §5: DTP daemons on
// every host reading NIC counters over PCIe, plus external (UTC)
// synchronization where one host broadcasts (counter, UTC) pairs and
// every other host serves UTC by interpolation.
//
// It is a client of the dtp façade: dtp.New, System.TimePlane (a daemon
// on every host node of the -topo graph — default the paper's tree,
// eight hosts s4–s11 — the first broadcasting, the rest serving
// TrueTime-style intervals) and System.Timeline. All measurement flows
// through the telemetry registry; with -listen the live metrics and the
// protocol event trace are served over HTTP for the life of the
// process:
//
//	dtpd -duration 2s -cal 10ms -listen :9090 &
//	curl localhost:9090/metrics   # Prometheus text exposition
//	curl localhost:9090/trace     # JSONL protocol events
//
// -metrics-out and -trace-out dump the registry and the protocol trace
// to files at exit.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"time"

	"github.com/dtplab/dtp"
	"github.com/dtplab/dtp/internal/cliutil"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/timesvc"
)

var (
	// -topo -seed -duration -metrics-out -trace-out
	shared = cliutil.Flags{Topo: "tree", Duration: 2 * time.Second}

	calFlag    = flag.Duration("cal", 10*time.Millisecond, "daemon calibration interval")
	listenFlag = flag.String("listen", "", "serve /metrics, /trace, /timeline, /healthz and (once the run ends) /time/<host>/now on this address (e.g. :9090) and keep running")
	traceFlag  = flag.Int("trace-cap", 16384, "protocol trace ring capacity (events)")
	pprofFlag  = flag.Bool("pprof", false, "with -listen, also expose /debug/pprof/* and /debug/vars")

	loadQPSFlag = flag.Float64("load-qps", 0,
		"drive Poisson read load at this mean rate per served host from inside the simulation")
	timelineEvery = flag.Duration("timeline-every", time.Millisecond,
		"windowed-timeline sampling cadence (simulated time); served at /timeline with -listen")
)

func main() {
	shared.Register(flag.CommandLine,
		cliutil.FlagTopo|cliutil.FlagSeed|cliutil.FlagDuration|
			cliutil.FlagMetricsOut|cliutil.FlagTraceOut|cliutil.FlagHardened|
			cliutil.FlagDiscipline)
	flag.Parse()
	if err := shared.Validate(); err != nil {
		cliutil.Fatal("dtpd", 2, err)
	}
	disc, err := shared.ParseDiscipline()
	if err != nil {
		cliutil.Fatal("dtpd", 2, err)
	}
	g, err := shared.Topology()
	if err != nil {
		cliutil.Fatal("dtpd", 2, err)
	}

	reg := dtp.NewMetricsRegistry()
	tracer := dtp.NewTracer(*traceFlag)
	tracer.SetKinds() // demo binary: include per-beacon firehose kinds in /trace

	// Bind the listener before simulating so a bad -listen fails fast.
	// The mux outlives this block: /time/<host>/ handlers register after
	// the simulation finishes (ServeMux is safe for concurrent
	// Handle/ServeHTTP).
	var ln net.Listener
	var mux *http.ServeMux
	if *listenFlag != "" {
		ln, err = net.Listen("tcp", *listenFlag)
		if err != nil {
			cliutil.Fatal("dtpd", 1, err)
		}
		mux = http.NewServeMux()
		mux.Handle("/", dtp.TelemetryHandler(reg, tracer))
		if *pprofFlag {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.Handle("/debug/vars", expvar.Handler())
		}
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "dtpd: http:", err)
			}
		}()
		fmt.Printf("dtpd: serving telemetry on http://%s/metrics and /trace\n", ln.Addr())
		if *pprofFlag {
			fmt.Printf("dtpd: runtime profiling on http://%s/debug/pprof/ and /debug/vars\n", ln.Addr())
		}
	}

	opts := []dtp.Option{dtp.WithSeed(shared.Seed), dtp.WithTelemetry(reg, tracer), dtp.WithDiscipline(disc)}
	if shared.Hardened {
		opts = append(opts, dtp.WithHardened())
	}
	sys, err := dtp.New(g, opts...)
	if err != nil {
		cliutil.Fatal("dtpd", 1, err)
	}
	// A long-lived daemon may report wall-clock throughput: these metrics
	// are intentionally nondeterministic and never appear in dtpsim dumps.
	sys.EnableSchedulerMetrics(true)
	sys.Start()
	if err := sys.RunUntilSynced(10 * time.Millisecond); err != nil {
		cliutil.Fatal("dtpd", 1, err)
	}

	// The serving plane (§5 + TrueTime-style intervals): a daemon on
	// every host, the first host broadcasting UTC (from a perfect source
	// standing in for GPS/PTP at the timeserver), a TimeService backed by
	// a live 4TD auditor on every other. Attach order as campaign.Arm:
	// plane, then the timeline that enumerates it.
	tp, err := sys.TimePlane(dtp.TimePlaneOptions{
		CalInterval: *calFlag, BroadcastInterval: 50 * time.Millisecond, LoadQPS: *loadQPSFlag,
	})
	if err != nil {
		cliutil.Fatal("dtpd", 2, err)
	}
	// Handles for the report. The plane itself named every host, so the
	// accessors cannot fail.
	served := tp.Hosts()
	hosts := append([]string{tp.Broadcaster()}, served...)
	sort.Strings(hosts)
	daemons := make([]*dtp.Daemon, len(hosts))
	for i, h := range hosts {
		daemons[i], _ = tp.Daemon(h)
	}
	services := make([]*dtp.TimeService, len(served))
	for i, h := range served {
		services[i], _ = tp.Service(h)
	}
	tl := sys.Timeline(dtp.TimelineOptions{Interval: *timelineEvery})
	if mux != nil {
		mux.Handle("/timeline", tl)
		mux.Handle("/healthz", tp.HealthHandler())
		fmt.Printf("dtpd: timeline on http://%s/timeline, serving-plane health on /healthz\n", ln.Addr())
	}

	sys.Run(shared.Duration)

	fmt.Printf("== DTP daemon offsets (estimate - hardware counter), ticks — discipline %q\n",
		daemons[0].Discipline())
	fmt.Printf("%-5s %8s %8s %8s %8s\n", "host", "samples", "min", "max", "p99|.|")
	for i, h := range hosts {
		hist := daemons[i].OffsetHistogram()
		fmt.Printf("%-5s %8d %8.1f %8.1f %8.1f\n",
			h, hist.Count(), hist.Min(), hist.Max(), hist.QuantileAbs(0.99))
	}

	fmt.Println("\n== UTC via external synchronization (§5.2), error vs true time")
	utc := reg.Histogram("dtp_utc_error_ns",
		"UTC-follower error versus true time, in nanoseconds (§5.2).",
		telemetry.LinearBuckets(-200, 20, 21))
	for i := 0; i < 200; i++ {
		sys.Run(time.Millisecond)
		for _, h := range served {
			// A follower has no estimate before its first pair.
			if e, err := tp.UTCErrorPs(h); err == nil {
				utc.Observe(e / 1000)
			}
		}
	}
	if utc.Count() == 0 {
		fmt.Printf("followers: %d, no UTC pair received yet\n", len(served))
	} else {
		fmt.Printf("followers: %d, |error| max %.0f ns, p99 %.0f ns\n",
			len(served), math.Max(math.Abs(utc.Min()), math.Abs(utc.Max())),
			utc.QuantileAbs(0.99))
	}

	// Cross-host comparison: the end-to-end software precision claim
	// (4TD + 8T).
	worst := reg.Gauge("dtp_daemon_pairwise_worst_ticks",
		"Worst daemon-vs-daemon estimate difference observed, in ticks.")
	for i := 0; i < 200; i++ {
		sys.Run(time.Millisecond)
		for a := range daemons {
			for b := a + 1; b < len(daemons); b++ {
				worst.SetMax(math.Abs(daemons[a].OffsetTicks() - daemons[b].OffsetTicks()))
			}
		}
	}
	fmt.Printf("\n== End-to-end software precision: worst daemon-vs-daemon error %.1f ticks (= %.1f ns; paper bound 4TD+8T)\n",
		worst.Value(), worst.Value()*sys.TickNanos())

	fmt.Println("\n== Time service (internal/timesvc): TrueTime-style intervals per host")
	fmt.Printf("%-5s %9s %8s %12s %10s %8s\n", "host", "publishes", "degraded", "width(ns)", "reads", "errors")
	for i, h := range served {
		svc := services[i]
		w, covered, rerr := svc.ReadCheck()
		width := fmt.Sprintf("%.1f", w/1000)
		if rerr != nil {
			width = "stale"
		} else if !covered {
			width += "!"
		}
		var reads, rerrs uint64
		if ld := tp.Load(h); ld != nil {
			reads, rerrs = ld.Reads(), ld.Errors()
		}
		fmt.Printf("%-5s %9d %8d %12s %10d %8d\n",
			h, svc.Publishes(), svc.DegradedTicks(), width, reads, rerrs)
	}

	// ε-budget attribution: which error source pays for each served
	// interval's width (same split as /healthz and the
	// dtp_timesvc_eps_* metrics).
	fmt.Println("\n== ε-budget attribution per host (share of cumulative served width)")
	fmt.Printf("%-5s %12s %8s %8s %8s %8s  %s\n",
		"host", "eps(ns)", "audit", "daemon", "bcast", "resid", "dominant")
	for i, h := range served {
		a := services[i].Attribution()
		fmt.Printf("%-5s %12.1f", h, a.TotalLastPs/1000)
		for _, c := range a.Components {
			fmt.Printf(" %7.1f%%", c.Share*100)
		}
		fmt.Printf("  %s\n", a.Dominant)
	}

	// With -listen, keep serving /time/<host>/now past the simulated
	// run: the final snapshot is re-anchored on the host's wall clock
	// (ratio 1, generous drift, no age cutoff) so intervals keep
	// advancing — and honestly widening — with no live calibration
	// behind them.
	if mux != nil {
		for i, h := range served {
			svc := services[i]
			utc, uerr := svc.Clock().Now()
			iv, ierr := svc.Clock().NowInterval()
			if uerr != nil || ierr != nil {
				continue // nothing published yet, or the last snapshot went stale
			}
			wallStore := &timesvc.Store{}
			wallTb := timesvc.NewWallTimebase(0)
			wallStore.Publish(timesvc.Snapshot{
				Epoch:     svc.Store().Epoch() + 1,
				AnchorRaw: wallTb.Raw(),
				AnchorUTC: utc,
				Ratio:     1,
				BoundPs:   iv.HalfWidthPs(),
				DriftPPM:  50, // undisciplined wall clock
				MaxAgePs:  0,  // serve indefinitely, ever wider
			})
			mux.Handle("/time/"+h+"/", http.StripPrefix("/time/"+h,
				timesvc.Handler(h, timesvc.NewClock(wallStore, wallTb))))
		}
		fmt.Printf("time service continues on http://%s/time/<host>/now (wall-extrapolated)\n", ln.Addr())
	}

	if shared.MetricsOut != "" {
		if err := cliutil.WriteFile(shared.MetricsOut, func(w io.Writer) error {
			return dtp.WriteMetrics(w, reg)
		}); err != nil {
			cliutil.Fatal("dtpd", 1, err)
		}
		fmt.Printf("metrics written to %s\n", shared.MetricsOut)
	}
	if shared.TraceOut != "" {
		if err := cliutil.WriteFile(shared.TraceOut, func(w io.Writer) error {
			return dtp.WriteTrace(w, tracer)
		}); err != nil {
			cliutil.Fatal("dtpd", 1, err)
		}
		fmt.Printf("trace written to %s\n", shared.TraceOut)
	}

	if ln != nil {
		fmt.Printf("\ndtpd: simulation finished; telemetry stays up on http://%s (Ctrl-C to exit)\n", ln.Addr())
		select {}
	}
}
