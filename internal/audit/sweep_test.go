package audit

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// mapAuditor is the sweep as it stood before the dense pair kernel:
// per-pair worsts in a map keyed by node IDs, hops and bounds read
// through the BFS tables for every pair, running extremes updated in
// place. It survives only here, as the reference the kernel must match
// number for number. Telemetry, convergence tracking and violation
// events are left out; everything that decides a counter is kept.
type mapAuditor struct {
	net *core.Network

	weights []int64
	active  []bool
	hops    [][]int
	bounds  [][]int64
	grace   int
	windows []degradeWindow

	checks, pairChecks, violations, excused uint64
	worst, minSlack                         int64
	pairWorst                               map[[2]int]int64
	counters                                []uint64
}

// shadow builds the reference over a's network and configuration, takes
// a off its own schedule and drives both from one event per interval, so
// they read every snapshot at the same instant with nothing dispatched
// in between.
func shadow(a *Auditor) *mapAuditor {
	o := &mapAuditor{
		net:       a.net,
		weights:   a.weights,
		active:    make([]bool, len(a.active)),
		minSlack:  math.MaxInt64,
		pairWorst: map[[2]int]int64{},
		counters:  make([]uint64, len(a.net.Graph.Nodes)),
	}
	a.event.Cancel()
	var tick func()
	tick = func() {
		a.check()
		a.event.Cancel()
		o.check()
		a.sch.After(a.cfg.Interval, tick)
	}
	a.sch.After(a.cfg.Interval, tick)
	return o
}

func (o *mapAuditor) excusedAt(t sim.Time) bool {
	for _, w := range o.windows {
		if w.from <= t && t <= w.until {
			return true
		}
	}
	return false
}

func (o *mapAuditor) check() {
	now := o.net.Sch.Now()
	o.checks++

	changed := o.hops == nil
	for i := range o.active {
		s := o.net.LinkSynced(i)
		if s != o.active[i] {
			o.active[i] = s
			changed = true
		}
	}
	if changed {
		o.hops, o.bounds = o.net.Graph.HopsWith(o.active, o.weights)
		o.grace = graceChecks
	}
	if o.grace > 0 {
		o.grace--
		return
	}

	for i, d := range o.net.Devices {
		o.counters[i] = d.GlobalCounterAt(now)
	}
	excused := o.excusedAt(now)
	for i := range o.counters {
		for j := i + 1; j < len(o.counters); j++ {
			if o.hops[i][j] < 0 {
				continue
			}
			o.pairChecks++
			abs := int64(o.counters[i]) - int64(o.counters[j])
			if abs < 0 {
				abs = -abs
			}
			bound := o.bounds[i][j]
			if abs > o.worst {
				o.worst = abs
			}
			key := [2]int{i, j}
			if abs > o.pairWorst[key] {
				o.pairWorst[key] = abs
			}
			if slack := bound - abs; slack < o.minSlack {
				o.minSlack = slack
			}
			if abs > bound {
				if excused {
					o.excused++
				} else {
					o.violations++
				}
			}
		}
	}
}

func (o *mapAuditor) worstPair(i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	return o.pairWorst[[2]int{i, j}]
}

// requireSame compares every number the sweep produces, including the
// per-pair worst for every ID pair in either order and for IDs outside
// the topology.
func requireSame(t *testing.T, at string, a *Auditor, o *mapAuditor) {
	t.Helper()
	type totals struct {
		checks, pairChecks, violations, excused uint64
		worst, minSlack                         int64
	}
	got := totals{a.Checks(), a.PairChecks(), a.Violations(), a.ExcusedViolations(), a.WorstOffsetUnits(), a.MinSlackUnits()}
	want := totals{o.checks, o.pairChecks, o.violations, o.excused, o.worst, o.minSlack}
	if got != want {
		t.Fatalf("%s: dense sweep %+v, map sweep %+v", at, got, want)
	}
	n := len(a.net.Graph.Nodes)
	for i := -2; i < n+2; i++ {
		for j := -2; j < n+2; j++ {
			if g, w := a.worstPairOffsetUnits(i, j), o.worstPair(i, j); g != w {
				t.Fatalf("%s: worstPairOffsetUnits(%d,%d) = %d, map sweep has %d", at, i, j, g, w)
			}
		}
	}
}

func TestDenseSweepMatchesMapSweep(t *testing.T) {
	alternatingPPM := func(g topo.Graph) core.Option {
		ppm := map[string]float64{}
		for i, nd := range g.Nodes {
			ppm[nd.Name] = float64(100 - 200*(i%2))
		}
		return core.WithPPM(ppm)
	}
	cases := []struct {
		name   string
		g      topo.Graph
		broken bool // run brokenConfig with worst-case skews so the bound breaks
		// windows are the expected-degradation intervals declared up front.
		windows [][2]sim.Time
		// cuts are (time, link) pairs: the link goes down at time and
		// comes back 3 ms later. Link 0 of the paper tree is the s0-s1
		// uplink, so cutting it partitions the tree.
		cuts         [][2]int64
		wantViol     bool
		wantExcused  bool
		wantUnreach  bool
		total, probe sim.Time
	}{
		{name: "clean fat-tree", g: topo.FatTree(4),
			total: 20 * sim.Millisecond, probe: 5 * sim.Millisecond},
		{name: "flaps, partition and excused windows", g: topo.PaperTree(), broken: true,
			windows: [][2]sim.Time{{4 * sim.Millisecond, 9 * sim.Millisecond}, {15 * sim.Millisecond, 16 * sim.Millisecond}},
			cuts:    [][2]int64{{6, 0}, {7, 3}, {12, 5}, {13, 0}, {14, 5}},
			total:   24 * sim.Millisecond, probe: 2 * sim.Millisecond,
			wantViol: true, wantExcused: true, wantUnreach: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ccfg := core.DefaultConfig()
			var opts []core.Option
			if tc.broken {
				ccfg = brokenConfig()
				opts = append(opts, alternatingPPM(tc.g))
			}
			n, a, _, _ := newAudited(t, tc.g, 4, Config{}, ccfg, opts...)
			o := shadow(a)
			for _, w := range tc.windows {
				a.ExpectDegradation(w[0], w[1], "test fault")
				o.windows = append(o.windows, degradeWindow{from: w[0], until: w[1]})
			}
			sawUnreach := false
			for _, c := range tc.cuts {
				li := int(c[1])
				at := sim.Time(c[0]) * sim.Millisecond
				n.Sch.At(at, func() { n.SetLinkDown(li) })
				n.Sch.At(at+3*sim.Millisecond, func() { n.SetLinkUp(li) })
				n.Sch.At(at+2*sim.Millisecond, func() {
					for _, b := range a.pairBound {
						sawUnreach = sawUnreach || b == unreachable
					}
				})
			}
			for now := tc.probe; now <= tc.total; now += tc.probe {
				n.Sch.Run(now)
				requireSame(t, now.String(), a, o)
			}
			if a.PairChecks() == 0 {
				t.Fatal("scenario never swept a pair")
			}
			if tc.wantViol != (a.Violations() > 0) || tc.wantExcused != (a.ExcusedViolations() > 0) || tc.wantUnreach != sawUnreach {
				t.Fatalf("scenario missed its branches: violations %d (want some: %v), excused %d (want some: %v), partition seen %v (want %v)",
					a.Violations(), tc.wantViol, a.ExcusedViolations(), tc.wantExcused, sawUnreach, tc.wantUnreach)
			}
		})
	}
}

// BenchmarkAuditSweep times one full check of a converged fattree:8 —
// link-set scan, 208 counter snapshots, 21 528 pair checks — and reports
// it per pair, the figure benchmark/'s audit.ns_per_pair_check
// estimates from outside by differential.
func BenchmarkAuditSweep(b *testing.B) {
	sch := sim.NewScheduler()
	ccfg := core.DefaultConfig()
	ccfg.BeaconIntervalTicks = 1200
	n, err := core.NewNetwork(sch, 1, topo.FatTree(8), ccfg)
	if err != nil {
		b.Fatal(err)
	}
	a := New(n, Config{}, nil, nil)
	n.Start()
	sch.Run(5 * sim.Millisecond)
	if !a.Converged() {
		b.Fatalf("fattree:8 not converged after warm-up: %s", a.Summary())
	}
	a.event.Cancel() // check() is driven by hand; its reschedule is cancelled each time
	pairs0 := a.PairChecks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.check()
		a.event.Cancel()
	}
	b.StopTimer()
	pairs := a.PairChecks() - pairs0
	if want := uint64(b.N) * uint64(a.numPairs()); pairs != want {
		b.Fatalf("swept %d pairs, want %d", pairs, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
}

// worstPairOffsetUnits returns the worst |offset| seen for a device
// pair, by topology node IDs in either order (0 if never checked).
func (a *Auditor) worstPairOffsetUnits(i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	if i < 0 || j >= len(a.counters) || i == j {
		return 0
	}
	return a.pairWorst[a.pairIndex(i, j)]
}

// pairIndex returns where the pair of node IDs i < j sits in the
// per-pair slices: row i of the strict upper triangle, row-major.
func (a *Auditor) pairIndex(i, j int) int {
	return i*(2*len(a.counters)-i-1)/2 + j - i - 1
}
