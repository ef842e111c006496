package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"github.com/dtplab/dtp"
	"github.com/dtplab/dtp/internal/audit"
	"github.com/dtplab/dtp/internal/campaign"
	"github.com/dtplab/dtp/internal/chaos"
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/discipline"
	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/timesvc"
	"github.com/dtplab/dtp/internal/topo"
	"github.com/dtplab/dtp/internal/xo"
)

// The per-layer numbers of the traced run are taken from outside each
// layer, in one of two ways. A probe times many calls of one public
// function. A differential runs the façade twice on the same seed with
// one feature on and off, in interleaved chunks, and reports the ratio.
// Each runs inside a span named after it.

// probeSet collects the per-layer metrics of a traced run.
type probeSet struct {
	rc   *runCtx
	m    map[string]float64
	open []*dtp.System // tree variants, closed when the differentials are done
}

// span runs f inside a "probe <name>" span.
func (ps *probeSet) span(name string, f func()) {
	sp := ps.rc.tr.begin("probe " + name)
	f()
	ps.rc.tr.end(sp)
}

// perCall stores under name the ns per iteration of loop, which runs n
// iterations per call; batches repeat until probeMin of wall time has been
// spent. Callers whose metric is in another unit divide ps.m[name] after.
func (ps *probeSet) perCall(name string, n int, loop func(n int)) {
	ps.span(name, func() {
		loop(n / 10) // warm caches and the branch predictor
		var total time.Duration
		calls := 0
		for total < ps.rc.size.probeMin {
			t0 := time.Now()
			loop(n)
			total += time.Since(t0)
			calls += n
		}
		ps.m[name] = float64(total.Nanoseconds()) / float64(calls)
	})
}

// wallNs times one call of f.
func wallNs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds())
}

func wallMs(f func()) float64 { return wallNs(f) / 1e6 }

var probeSink uint64 // results land here so the compiler keeps the loops

// hop is a self-rescheduling no-op actor: the bare engine workload.
type hop struct {
	s      *sim.Scheduler
	period sim.Time
}

func (h *hop) OnEvent(uint8, uint64, uint64) { h.s.AfterActor(h.period, h, 0, 0, 0) }

// nopActor absorbs deliveries.
type nopActor struct{}

func (nopActor) OnEvent(uint8, uint64, uint64) {}

// engineNsPerEvent is the scheduler's own cost with pop pending events:
// pop actors, each rescheduling itself one beacon interval ahead, phases
// spread over the interval.
func (ps *probeSet) engineNsPerEvent(name string, newSched func() *sim.Scheduler, pop int) {
	const period = 200 * 6400 * sim.Picosecond
	s := newSched()
	for i := 0; i < pop; i++ {
		h := &hop{s, period}
		s.AfterActor(period*sim.Time(i)/sim.Time(pop), h, 0, 0, 0)
	}
	ps.perCall(name, 200000, func(n int) {
		s.RunFor(period * sim.Time(n) / sim.Time(pop))
	})
}

// treeVariant builds a synced paper tree (wander on unless opts say
// otherwise), lets prep attach a feature to it, and keeps it for closing.
func (ps *probeSet) treeVariant(prep func(*dtp.System) error, opts ...dtp.Option) *dtp.System {
	all := append([]dtp.Option{dtp.WithSeed(ps.rc.seed), wander()}, opts...)
	sys, err := syncedSystem(dtp.PaperTree(), all...)
	if err == nil && prep != nil {
		err = prep(sys)
	}
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe set-up: %v", err)) // a healthy tree always builds
	}
	ps.open = append(ps.open, sys)
	return sys
}

// differential advances a and b in interleaved chunks (after one warm-up
// chunk each) and returns the median wall per chunk of each, in ns.
func (ps *probeSet) differential(name string, a, b *dtp.System, chunk time.Duration) (wa, wb float64) {
	ps.span(name, func() {
		a.Run(chunk)
		b.Run(chunk)
		var as, bs []float64
		for i := 0; i < ps.rc.size.probeChunks; i++ {
			as = append(as, wallNs(func() { a.Run(chunk) }))
			bs = append(bs, wallNs(func() { b.Run(chunk) }))
		}
		wa, wb = median(as), median(bs)
	})
	return wa, wb
}

// ratio runs a tree variant against the bare tree and stores cost÷bare.
func (ps *probeSet) ratio(name string, bare, variant *dtp.System) {
	wb, wv := ps.differential(name, bare, variant, ps.rc.size.probeChunk)
	ps.m[name] = wv / wb
}

// runProbes fills every workload-independent per-layer metric.
func (rc *runCtx) runProbes() map[string]float64 {
	ps := &probeSet{rc: rc, m: map[string]float64{}}
	root := rc.tr.begin("probes")
	defer rc.tr.end(root)

	ps.hostProbe()
	ps.simProbes()
	ps.pairProbe()
	ps.phyLinkXoProbes()
	ps.telemetryDisciplineProbes()
	ps.timesvcProbes()
	ps.treeDifferentials()
	ps.fattreeProbes()
	ps.campaignProbes()
	return ps.m
}

// hostProbe times the reference loop (ns per iteration), so records from
// different boxes can be normalised; ÷ refNsPerIter it is the host speed
// factor at the time the probes ran.
func (ps *probeSet) hostProbe() {
	ps.perCall("host.calib_ns", 100000, func(n int) { refLoop(n) })
}

func (ps *probeSet) simProbes() {
	ps.engineNsPerEvent("sim.ns_per_event.pop32", sim.NewScheduler, 32)
	ps.engineNsPerEvent("sim.ns_per_event.pop4096", sim.NewScheduler, 4096)
	ps.engineNsPerEvent("sim.heap_ns_per_event.pop4096", sim.NewHeapScheduler, 4096)

	s := sim.NewScheduler()
	for i := 0; i < 32; i++ {
		s.AfterActor(sim.Time(i+1)*sim.Microsecond, nopActor{}, 0, 0, 0)
	}
	ps.perCall("sim.cancel_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			s.AfterActor(500*sim.Nanosecond, nopActor{}, 0, 0, 0).Cancel()
		}
	})
}

// pairProbe runs a bare two-host network and reports wall, and scheduler
// events, per beacon received.
func (ps *probeSet) pairProbe() {
	ps.span("core.ns_per_beacon", func() {
		sch := sim.NewScheduler()
		net, err := core.NewNetwork(sch, ps.rc.seed, topo.Pair(), core.DefaultConfig())
		if err != nil {
			panic(fmt.Sprintf("benchmark: probe set-up: %v", err))
		}
		net.Start()
		sch.RunFor(sim.Millisecond)
		received := func() uint64 {
			a, b := net.LinkPorts(0)
			_, ra, _, _ := a.Stats()
			_, rb, _, _ := b.Stats()
			return ra + rb
		}
		r0, e0 := received(), sch.Processed()
		var total time.Duration
		for total < ps.rc.size.probeMin {
			t0 := time.Now()
			sch.RunFor(4 * sim.Millisecond)
			total += time.Since(t0)
		}
		beacons := float64(received() - r0)
		ps.m["core.ns_per_beacon"] = float64(total.Nanoseconds()) / beacons
		ps.m["core.events_per_beacon"] = float64(sch.Processed()-e0) / beacons
	})
}

func (ps *probeSet) phyLinkXoProbes() {
	frame := make([]byte, 1518)
	for i := range frame {
		frame[i] = byte(i * 31)
	}
	blocks, err := phy.Encode(frame)
	if err != nil {
		panic(err) // 1518 octets is a legal frame
	}
	nb := float64(len(blocks))
	ps.perCall("phy.encode_ns_per_block", 200, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := phy.Encode(frame)
			probeSink += uint64(len(b))
		}
	})
	ps.m["phy.encode_ns_per_block"] /= nb
	ps.perCall("phy.decode_ns_per_block", 200, func(n int) {
		for i := 0; i < n; i++ {
			f, _ := phy.Decode(blocks)
			probeSink += uint64(len(f))
		}
	})
	ps.m["phy.decode_ns_per_block"] /= nb
	scr := phy.NewScrambler()
	ps.perCall("phy.scramble_ns_per_block", 100000, func(n int) {
		for i := 0; i < n; i++ {
			probeSink += scr.Scramble(uint64(i))
		}
	})
	codec := phy.Codec{}
	ps.perCall("phy.msg_embed_extract_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			b := codec.EmbedMessage(phy.Message{Type: phy.MsgBeacon, Payload: uint64(i)})
			_, m, _ := codec.ExtractMessage(b)
			probeSink += m.Payload
		}
	})
	asm := phy.NewAssembler(codec)
	ps.perCall("phy.fragment_assemble_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			for _, f := range phy.FragmentMessage(codec, phy.Message{Type: phy.MsgBeacon, Payload: uint64(i)}) {
				m, _ := asm.Push(f)
				probeSink += m.Payload
			}
		}
	})

	for _, w := range []struct {
		name string
		ber  float64
	}{{"link.send_block_ns.ber0", 0}, {"link.send_block_ns.ber1e-6", 1e-6}} {
		s := sim.NewScheduler()
		wire, err := link.New(s, sim.NewRNG(ps.rc.seed, "probe-wire"),
			link.Config{Delay: link.DelayForLength(10), BER: w.ber})
		if err != nil {
			panic(err) // constant, valid config
		}
		blk := codec.EmbedMessage(phy.Message{Type: phy.MsgBeacon, Payload: 1})
		ps.perCall(w.name, 100000, func(n int) {
			for i := 0; i < n; i++ {
				wire.SendBlockActor(blk, nopActor{}, 0)
				s.Step()
			}
		})
	}

	s := sim.NewScheduler()
	clk := xo.NewClock(s, sim.NewRNG(ps.rc.seed, "probe-xo"), xo.Default10G(50))
	at := sim.Time(0)
	ps.perCall("xo.counter_at_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			at += 6400 * sim.Picosecond
			probeSink += clk.CounterAt(at)
		}
	})
}

func (ps *probeSet) telemetryDisciplineProbes() {
	reg := telemetry.New()
	ctr := reg.Counter("probe_total", "probe")
	ps.perCall("telemetry.counter_add_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Add(1)
		}
	})
	hist := reg.Histogram("probe_hist", "probe", telemetry.ExponentialBuckets(1, 2, 16))
	ps.perCall("telemetry.hist_observe_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i & 1023))
		}
	})
	sw := telemetry.NewStripedHistogram(1000, 30, 1).Writer()
	ps.perCall("telemetry.striped_observe_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			sw.Observe(float64(i&1023) * 1000)
		}
	})
	tr := telemetry.NewTracer(1 << 12)
	ps.perCall("telemetry.tracer_record_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			tr.Record(sim.Time(i), telemetry.KindDaemonCal, "probe", int64(i), 0, "")
		}
	})

	// One calibration sample per 10 ms of TSC time on a clock 30 ppm off
	// nominal, with a little latch noise: what a daemon feeds.
	const nominal = 1.0 / 6400 // counter units per TSC ps at 10 GbE
	for _, kind := range discipline.Kinds() {
		d, err := discipline.Config{Kind: kind}.New(nominal)
		if err != nil {
			panic(err) // Kinds() lists valid kinds
		}
		tsc := 0.0
		ps.perCall("discipline.feed_ns."+kind, 2000, func(n int) {
			for i := 0; i < n; i++ {
				tsc += 1e10
				noise := float64(i%7-3) * 0.2
				m := d.Feed(discipline.Sample{DTP: tsc*nominal*(1+30e-6) + noise, TSC: tsc, LatchErrPs: 200e3})
				probeSink += uint64(m.Ratio)
			}
		})
	}
}

func (ps *probeSet) timesvcProbes() {
	store := &timesvc.Store{}
	snap := timesvc.Snapshot{Epoch: 1, Ratio: 1, BoundPs: 50e3, DriftPPM: 1}
	ps.perCall("timesvc.publish_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			snap.Epoch++
			store.Publish(snap)
		}
	})
	ps.perCall("timesvc.store_read_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			sn, _ := store.Read()
			probeSink += sn.Epoch
		}
	})
	tb := timesvc.NewWallTimebase(0)
	clock := timesvc.NewClock(store, tb)
	ps.perCall("timesvc.now_interval_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			iv, _ := clock.NowInterval()
			probeSink += uint64(iv.LatestPs)
		}
	})

	// Reads beside writes, and reads feeding the width histogram, each
	// against the quiet read loop, interleaved.
	hist := telemetry.NewStripedHistogram(1000, 30, 1)
	hw := hist.Writer()
	var quiet, busy, attr []float64
	ps.span("timesvc.read_loops", func() {
		rate := func(observe func(float64)) float64 {
			t, wall := readLoop(clock, tb, 2*ps.rc.size.probeMin, nil, observe)
			probeSink += uint64(t.sink)
			return float64(t.reads) / wall.Seconds()
		}
		for i := 0; i < ps.rc.size.probeChunks; i++ {
			quiet = append(quiet, rate(nil))
			w := startWallWriter(store, tb, snap, 10*time.Microsecond) // ≈100 kHz
			busy = append(busy, rate(nil))
			w.close()
			attr = append(attr, rate(hw.Observe))
		}
	})
	hw.Flush()
	ps.m["timesvc.read_writer_slowdown_ratio"] = median(quiet) / median(busy)
	ps.m["timesvc.attr_overhead_ratio"] = median(quiet) / median(attr)
}

// treeDifferentials are the façade on/off pairs on the paper tree, each
// against the same bare tree (wander on, nothing attached).
func (ps *probeSet) treeDifferentials() {
	bare := ps.treeVariant(nil)
	defer func() {
		for _, sys := range ps.open {
			closeSystem(sys)
		}
		ps.open = nil
	}()

	// Steady-state mallocs of the bare beacon path (expected 0), and the
	// façade daemon's estimate call.
	ps.span("core.allocs_per_sim_ms", func() {
		var m0, m1 runtime.MemStats
		bare.Run(ps.rc.size.probeChunk)
		runtime.ReadMemStats(&m0)
		bare.Run(ps.rc.size.probeChunk)
		runtime.ReadMemStats(&m1)
		ps.m["core.allocs_per_sim_ms"] = float64(m1.Mallocs-m0.Mallocs) /
			(float64(ps.rc.size.probeChunk) / float64(time.Millisecond))
	})

	ps.ratio("core.hardened_overhead_ratio", bare, ps.treeVariant(nil, dtp.WithHardened()))
	// Wander is the one feature the bare tree has on: invert to on ÷ off.
	ps.ratio("xo.wander_overhead_ratio", bare, ps.treeVariant(nil, dtp.WithWander(0, 0)))
	ps.m["xo.wander_overhead_ratio"] = 1 / ps.m["xo.wander_overhead_ratio"]
	ps.ratio("fabric.load_overhead_ratio", bare, ps.treeVariant(func(s *dtp.System) error {
		s.SetUniformLoad(1518)
		return nil
	}))

	reg, tr := dtp.NewMetricsRegistry(), dtp.NewTracer(0)
	ps.ratio("telemetry.sim_overhead_ratio", bare, ps.treeVariant(nil, dtp.WithTelemetry(reg, tr)))
	ps.span("telemetry.prom_write_ms", func() {
		ps.m["telemetry.prom_write_ms"] = wallMs(func() {
			if err := dtp.WriteMetrics(io.Discard, reg); err != nil {
				panic(err) // io.Discard cannot fail
			}
		})
	})

	fire := dtp.NewTracer(1 << 16)
	fire.SetKinds() // every kind, the per-beacon firehose included
	firehose := ps.treeVariant(nil, dtp.WithTelemetry(dtp.NewMetricsRegistry(), fire))
	ps.ratio("telemetry.firehose_overhead_ratio", bare, firehose)
	ps.m["telemetry.trace_dropped"] = float64(fire.Dropped())
	ps.span("audit.analyze_ms_per_kevent", func() {
		events := fire.Events()
		g := topo.PaperTree()
		var rep *audit.Report
		ms := wallMs(func() { rep = audit.Analyze(events, &g, 0) })
		ps.m["audit.analyze_ms_per_kevent"] = ms / (float64(rep.Events) / 1000)
	})

	ps.ratio("telemetry.timeline_overhead_ratio", bare, ps.treeVariant(func(s *dtp.System) error {
		s.Timeline(dtp.TimelineOptions{})
		return nil
	}, dtp.WithTelemetry(dtp.NewMetricsRegistry(), dtp.NewTracer(0))))

	var someDaemon *dtp.Daemon
	withDaemons := ps.treeVariant(func(s *dtp.System) error {
		g := s.Graph()
		for _, id := range g.HostIDs() {
			d, err := s.Daemon(dtp.DaemonOptions{Host: g.Nodes[id].Name, CalInterval: 10 * time.Millisecond})
			if err != nil {
				return err
			}
			someDaemon = d
		}
		return nil
	})
	ps.ratio("daemon.overhead_ratio", bare, withDaemons)
	ps.perCall("daemon.estimate_ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(someDaemon.Counter())
		}
	})

	plane, err := newPlane(ps.rc.seed, 100000, ps.rc.size.probeChunk)
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe set-up: %v", err))
	}
	ps.open = append(ps.open, plane.sys)
	ps.ratio("timesvc.plane_overhead_ratio", bare, plane.sys)
	h := plane.tp.HealthHandler()
	req := httptest.NewRequest("GET", "/healthz", nil)
	ps.perCall("timesvc.health_handler_us", 200, func(n int) {
		for i := 0; i < n; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	})
	ps.m["timesvc.health_handler_us"] /= 1e3
}

// fattreeProbes are the scale numbers: construction, INIT, BFS, the
// all-pairs offset scan and the audit sweep on fattree:8.
func (ps *probeSet) fattreeProbes() {
	var g dtp.Topology
	ps.span("topo.build_ms.fattree8", func() {
		ps.m["topo.build_ms.fattree8"] = wallMs(func() { g = topo.FatTree(8) })
	})
	ps.span("topo.hops_ms.fattree8", func() {
		ps.m["topo.hops_ms.fattree8"] = wallMs(func() { probeSink += uint64(len(g.Hops())) })
	})
	ps.span("topo.hopswith_ms.fattree8", func() {
		active := make([]bool, len(g.Links))
		weights := make([]int64, len(g.Links))
		for i := range active {
			active[i], weights[i] = true, 4
		}
		ps.m["topo.hopswith_ms.fattree8"] = wallMs(func() {
			h, _ := g.HopsWith(active, weights)
			probeSink += uint64(len(h))
		})
	})

	// Two identical builds; the second's timings are the ones recorded.
	build := func() *dtp.System {
		var sys *dtp.System
		var err error
		opts := []dtp.Option{dtp.WithSeed(ps.rc.seed), dtp.WithBeaconInterval(fattreeBeacon), wander()}
		ps.m["core.new_ms.fattree8"] = wallMs(func() { sys, err = dtp.New(g, opts...) })
		if err != nil {
			panic(fmt.Sprintf("benchmark: probe set-up: %v", err))
		}
		sys.Start()
		initMs := wallMs(func() { err = sys.RunUntilSynced(time.Second) })
		if err != nil {
			panic(fmt.Sprintf("benchmark: probe set-up: %v", err))
		}
		ps.m["core.init_us_per_link"] = initMs * 1e3 / float64(len(g.Links))
		return sys
	}
	var plain, audited *dtp.System
	ps.span("core.new+init fattree8", func() { plain, audited = build(), build() })
	defer closeSystem(plain)
	defer closeSystem(audited)

	ps.perCall("core.max_pairwise_offset_us.fattree8", 5, func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(plain.MaxOffsetTicks())
		}
	})
	ps.m["core.max_pairwise_offset_us.fattree8"] /= 1e3

	aud := audited.Audit(dtp.AuditOptions{Interval: 100 * time.Microsecond})
	// At least two audit intervals, so every chunk holds a sweep.
	chunk := max(ps.rc.size.probeChunk/4, 200*time.Microsecond)
	pc0 := aud.PairChecks()
	wPlain, wAud := ps.differential("audit.wall_share.fattree8", plain, audited, chunk)
	// differential ran one warm-up and probeChunks measured chunks.
	perChunk := float64(aud.PairChecks()-pc0) / float64(ps.rc.size.probeChunks+1)
	ps.m["audit.wall_share.fattree8"] = (wAud - wPlain) / wAud
	ps.m["audit.ns_per_pair_check"] = (wAud - wPlain) / perChunk
}

// campaignProbes cost the campaign runner and the chaos engine on a
// subset of campaign_mix, and check the determinism contract: JSONL
// bytes at Jobs 1 equal those at Jobs 2.
func (ps *probeSet) campaignProbes() {
	rc := ps.rc
	grids, err := newCampaignGrids(rc.outDir)
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe set-up: %v", err))
	}
	ps.perCall("chaos.load_us", 50, func(n int) {
		for i := 0; i < n; i++ {
			sc, err := chaos.Load(grids.stormPath)
			if err != nil {
				panic(err) // the embedded scenario is valid
			}
			probeSink += uint64(len(sc.Faults))
		}
	})
	ps.m["chaos.load_us"] /= 1e3

	seeds := poolSeeds(stormPoolFirst, stormPoolSize, rc.seed, 0, rc.size.probeSeeds)
	storm := grids.storm(seeds)
	ps.perCall("campaign.expand_us", 200, func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(len(storm.Expand()))
		}
	})
	ps.m["campaign.expand_us"] /= 1e3

	run := func(name string, g campaign.Grid, jobs int) *campaign.Report {
		var rep *campaign.Report
		ps.span(name, func() {
			if rep, err = campaign.Run(g, campaign.Options{Jobs: jobs}); err != nil {
				panic(fmt.Sprintf("benchmark: %s: %v", name, err)) // the grid is constant and valid
			}
		})
		for i := range rep.Results {
			r := &rep.Results[i]
			rc.check(r.OK(), "probe grid %s point %v failed: %s%s", g.Name, r.Point, r.Err, r.ChaosErr)
		}
		return rep
	}
	pointMs := func(rep *campaign.Report) float64 {
		var ws []float64
		for i := range rep.Results {
			ws = append(ws, float64(rep.Results[i].Wall.Nanoseconds())/1e6)
		}
		return median(ws)
	}
	jsonl := func(rep *campaign.Report) []byte {
		var buf bytes.Buffer
		ps.m["campaign.merge_ms"] = wallMs(func() {
			probeSink += uint64(campaign.Aggregated(rep.Grid.Name, rep.Results).Runs)
			if err := campaign.WriteJSONL(&buf, rep.Results); err != nil {
				panic(err) // bytes.Buffer cannot fail
			}
		})
		return buf.Bytes()
	}

	// Two-worker runs first: on this VM the second vCPU runs slow for a
	// while after idling, and the workload and probes before this point
	// are single-threaded. Both sides of the chaos ratio run equally
	// contended, so the ratio stands.
	clean := storm
	clean.Chaos = nil
	clean.Disciplines = nil
	stormOnly := storm
	stormOnly.Disciplines = nil
	ps.m["chaos.overhead_ratio"] = pointMs(run("campaign.Run chaos on", stormOnly, 2)) /
		pointMs(run("campaign.Run chaos off", clean, 2))

	serial := run("campaign.Run storm jobs=1", storm, 1)
	parallel := run("campaign.Run storm jobs=2", storm, 2)
	ps.m["campaign.jobs2_speedup"] = serial.Wall.Seconds() / parallel.Wall.Seconds()
	ps.m["campaign.point_ms.storm"] = pointMs(serial)
	rc.check(bytes.Equal(jsonl(serial), jsonl(parallel)),
		"campaign JSONL at Jobs 1 differs from Jobs 2 on the %d-point subset", len(serial.Results))

	ps.m["campaign.point_ms.liar"] = 0
	if rc.size.liarSeeds > 0 {
		liar := grids.liar(poolSeeds(liarPoolFirst, liarPoolSize, rc.seed, 0, 1))
		ps.m["campaign.point_ms.liar"] = pointMs(run("campaign.Run liar jobs=1", liar, 1))
	}
}

// workloadLayerMetrics derives the workload-scoped per-layer metrics
// from what the traced run of the workload itself counted.
func (rc *runCtx) workloadLayerMetrics(m map[string]float64, spans []span) {
	for n, v := range rc.rec.Exact {
		m[n] = v
	}
	wallNs := float64(rc.measured.Nanoseconds())
	events := float64(rc.rec.Samples["events"])
	m["sim.events_per_s"], m["core.ns_per_event"], m["trace.unattributed_share"] = 0, 0, 0
	if events > 0 {
		engine := m["sim.ns_per_event.pop32"]
		if rc.rec.Workload == "fattree8_audit" {
			engine = m["sim.ns_per_event.pop4096"]
		}
		m["sim.events_per_s"] = events / rc.measured.Seconds()
		m["core.ns_per_event"] = wallNs/events - engine
		// What the probes explain of the measured wall: every event at
		// the bare pair's cost per event (engine + port + wire + codec),
		// every audited pair at the sweep's cost, every in-sim read at
		// the read path's. The rest is what only in-program spans can
		// attribute.
		explained := events*m["core.ns_per_beacon"]/m["core.events_per_beacon"] +
			float64(rc.rec.Samples["pair_checks"])*m["audit.ns_per_pair_check"] +
			float64(rc.rec.Samples["sim_reads"])*m["timesvc.now_interval_ns"]
		m["trace.unattributed_share"] = 1 - explained/wallNs
	}

	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_ratio"] = 1
	if len(rc.segOff) > 0 {
		m["trace.overhead_ratio"] = median(rc.segOn) / median(rc.segOff)
	}
	// Share of the measured segments spent in the benchmark's own code
	// rather than inside a layer call, over the segments that recorded
	// call spans.
	var segTotal, segSelf float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "segment.") && s.Self < s.End-s.Start {
			segTotal += float64(s.End - s.Start)
			segSelf += float64(s.Self)
		}
	}
	m["trace.harness_share"] = 0
	if segTotal > 0 {
		m["trace.harness_share"] = segSelf / segTotal
	}
}
