// Package experiments contains one entry point per table and figure of
// the paper's evaluation (§6), run by cmd/dtpexp. Each experiment builds
// the corresponding deployment, runs it for a (time-compressed)
// measurement window, and returns structured results; EXPERIMENTS.md
// records paper-vs-measured values. One test in this package asserts
// each claim, over the shortest window that decides it.
package experiments

import (
	"fmt"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/discipline"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
	"github.com/dtplab/dtp/internal/topo"
)

// Options control an experiment run.
type Options struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Duration is the measurement window in simulated time (after
	// settling). Zero selects a per-experiment default.
	Duration sim.Time
	// Jobs is the worker-pool width for sweeps whose points are
	// independent simulations (<= 0 selects GOMAXPROCS). Results are
	// merged in point order, so the output is identical for any value.
	Jobs int
	// Discipline selects the daemon's software-clock estimator for the
	// experiments that attach daemons (Figure 7). The zero value is the
	// paper's moving average.
	Discipline discipline.Config
}

func (o Options) withDefaults(dur sim.Time) Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Duration == 0 {
		o.Duration = dur
	}
	return o
}

// sampleFor advances the scheduler through o.Duration in steps of
// period, the experiment's offset sampling cadence, and calls sample
// after each: the loop every table and figure measures with.
func sampleFor(sch *sim.Scheduler, o Options, period sim.Time, sample func()) {
	end := sch.Now() + o.Duration
	for sch.Now() < end {
		sch.RunFor(period)
		sample()
	}
}

// settled builds a DTP network on a scheduler of its own, brings every
// link up and runs the warm-up: experiments measure a synchronized
// network, so one that is not by then is an error, not a data point.
func settled(seed uint64, g topo.Graph, cfg core.Config, warm sim.Time, opts ...core.Option) (*sim.Scheduler, *core.Network, error) {
	sch := sim.NewScheduler()
	n, err := core.NewNetwork(sch, seed, g, cfg, opts...)
	if err != nil {
		return nil, nil, err
	}
	n.Start()
	sch.Run(warm)
	if !n.AllSynced() {
		return nil, nil, fmt.Errorf("experiments: %d-device network failed to synchronize in %v", len(g.Nodes), warm)
	}
	return sch, n, nil
}

// absMax returns the larger of worst and |v|.
func absMax[T int64 | float64](worst, v T) T {
	if v < 0 {
		v = -v
	}
	if v > worst {
		return v
	}
	return worst
}

// DTPFigResult is the output of the DTP precision experiments
// (Figures 6a–c).
type DTPFigResult struct {
	// PairSummaries holds the protocol's own offset samples
	// (t2 - t1 - OWD, in ticks) keyed by "receiver-sender".
	PairSummaries map[string]*stats.Summary
	// PairSeries holds offset-vs-time traces for the figure's pairs.
	PairSeries map[string]*stats.Series
	// Hist is the pooled offset distribution (Figure 6c's PDF).
	Hist map[string]*stats.IntHist
	// MaxAbsTicks is the worst protocol-observed |offset| in ticks.
	MaxAbsTicks float64
	// MaxTrueTicks is the worst ground-truth adjacent |offset|.
	MaxTrueTicks int64
	// BoundTicks is the 4TD bound for directly connected devices (4).
	BoundTicks int64
}

// figPairs are the link directions plotted in Figure 6.
var figPairs = []string{
	"s1-s4", "s1-s5", "s1-s0",
	"s2-s7", "s2-s8", "s2-s0",
	"s3-s10", "s3-s11", "s3-s0", "s3-s9",
}

// runDTPFig is the shared engine of Figures 6a–c: the paper tree under
// saturating load, beacons confined to interpacket gaps.
func runDTPFig(o Options, frameOctets int, beaconInterval uint64) (*DTPFigResult, error) {
	o = o.withDefaults(2 * sim.Second)
	sch := sim.NewScheduler()
	cfg := core.DefaultConfig()
	cfg.BeaconIntervalTicks = beaconInterval
	// Slow oscillator wander makes the traces move as in the figures;
	// compressed in time like everything else.
	cfg.WanderInterval = 10 * sim.Millisecond
	cfg.WanderStepPPB = 100
	n, err := core.NewNetwork(sch, o.Seed, topo.PaperTree(), cfg)
	if err != nil {
		return nil, err
	}
	res := &DTPFigResult{
		PairSummaries: map[string]*stats.Summary{},
		PairSeries:    map[string]*stats.Series{},
		Hist:          map[string]*stats.IntHist{},
		BoundTicks:    4,
	}
	wanted := map[string]bool{}
	for _, p := range figPairs {
		wanted[p] = true
	}
	n.OnOffset = func(rx *core.Port, at sim.Time, off int64) {
		name := rx.PairName()
		if !wanted[name] {
			return
		}
		s := res.PairSummaries[name]
		if s == nil {
			s = stats.NewSummary(0)
			res.PairSummaries[name] = s
			res.PairSeries[name] = stats.NewSeries()
			res.Hist[name] = stats.NewIntHist()
		}
		s.Add(float64(off))
		res.PairSeries[name].Add(at.Seconds(), float64(off))
		res.Hist[name].Add(off)
	}
	// Links come up idle, the network synchronizes, then load starts.
	n.Start()
	sch.Run(10 * sim.Millisecond)
	if !n.AllSynced() {
		return nil, fmt.Errorf("experiments: network failed to synchronize")
	}
	n.SetGateAll(func(p *core.Port) core.TxGate {
		return core.NewSaturatedGate(frameOctets)
	})
	sampleFor(sch, o, 250*sim.Microsecond, func() {
		if t := n.MaxAdjacentOffset(); t > res.MaxTrueTicks {
			res.MaxTrueTicks = t
		}
	})
	for _, s := range res.PairSummaries {
		if s.MaxAbs() > res.MaxAbsTicks {
			res.MaxAbsTicks = s.MaxAbs()
		}
	}
	return res, nil
}

// Fig6a reproduces Figure 6a: beacon interval 200 ticks, network
// heavily loaded with MTU-sized frames. Paper: offsets never exceed
// ±4 ticks (25.6 ns).
func Fig6a(o Options) (*DTPFigResult, error) {
	return runDTPFig(o, 1522, 200)
}

// Fig6b reproduces Figure 6b: beacon interval 1200, jumbo frames.
func Fig6b(o Options) (*DTPFigResult, error) {
	return runDTPFig(o, 9022, 1200)
}

// Fig6c reproduces Figure 6c: the offset distribution observed at S3
// (pairs s3-s9, s3-s10, s3-s11, s3-s0) over a long heavily loaded run
// with beacon interval 1200.
func Fig6c(o Options) (*DTPFigResult, error) {
	o = o.withDefaults(4 * sim.Second)
	return runDTPFig(o, 9022, 1200)
}
