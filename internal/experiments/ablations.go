package experiments

import (
	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/par"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// AlphaRow is one point of the α ablation (T2, Algorithm 1).
type AlphaRow struct {
	Alpha int64
	// RatchetPPM is how much faster the global counter ran than the
	// fastest oscillator, in ppm. Positive means the mutual-adjustment
	// feedback loop is ratcheting — what α = 3 prevents.
	RatchetPPM float64
	// MaxOffsetTicks is the worst adjacent offset.
	MaxOffsetTicks int64
}

// AblationAlpha sweeps α, demonstrating the design point of §3.3: too
// small an α lets the measured one-way delay exceed the true delay,
// which drives the global counter faster than any oscillator. Points
// fan out across o.Jobs workers and merge in input order.
func AblationAlpha(o Options, alphas []int64) ([]AlphaRow, error) {
	o = o.withDefaults(sim.Second)
	return par.Map(o.Jobs, len(alphas), func(i int) (AlphaRow, error) {
		a := alphas[i]
		cfg := core.DefaultConfig()
		cfg.AlphaUnits = a
		sch, n, err := settled(o.Seed, topo.Pair(), cfg, 10*sim.Millisecond,
			core.WithPPM(map[string]float64{"h0": 100, "h1": -100}))
		if err != nil {
			return AlphaRow{}, err
		}
		start := n.Devices[0].GlobalCounter()
		t0 := sch.Now()
		var worst int64
		sampleFor(sch, o, 100*sim.Microsecond, func() {
			worst = absMax(worst, n.TrueOffsetUnits(0, 1))
		})
		gained := float64(n.Devices[0].GlobalCounter() - start)
		elapsed := (sch.Now() - t0).Seconds()
		fastest := 156.25e6 * (1 + 100e-6) // +100 ppm oscillator
		ratchet := (gained/elapsed/fastest - 1) * 1e6
		return AlphaRow{Alpha: a, RatchetPPM: ratchet, MaxOffsetTicks: worst}, nil
	})
}

// BeaconIntervalRow is one point of the resynchronization-interval
// ablation (§3.3: intervals below ~5000 ticks keep the interval's
// contribution within 2 ticks).
type BeaconIntervalRow struct {
	IntervalTicks  uint64
	MaxOffsetTicks int64
}

// AblationBeaconInterval sweeps the beacon interval across the paper's
// operating points and beyond the 5000-tick analysis limit. Points fan
// out across o.Jobs workers and merge in input order.
func AblationBeaconInterval(o Options, intervals []uint64) ([]BeaconIntervalRow, error) {
	o = o.withDefaults(sim.Second)
	return par.Map(o.Jobs, len(intervals), func(i int) (BeaconIntervalRow, error) {
		iv := intervals[i]
		cfg := core.DefaultConfig()
		cfg.BeaconIntervalTicks = iv
		cfg.GuardUnits = 1 << 20 // observe pure drift, no guard effects
		sch, n, err := settled(o.Seed, topo.Pair(), cfg, 10*sim.Millisecond,
			core.WithPPM(map[string]float64{"h0": 100, "h1": -100}))
		if err != nil {
			return BeaconIntervalRow{}, err
		}
		var worst int64
		sampleFor(sch, o, 100*sim.Microsecond, func() {
			worst = absMax(worst, n.TrueOffsetUnits(0, 1))
		})
		return BeaconIntervalRow{IntervalTicks: iv, MaxOffsetTicks: worst}, nil
	})
}

// SyncEResult compares free-running oscillators against SyncE-style
// syntonization (§8): with every device's frequency locked to a common
// reference, the only remaining offset sources are the static
// measurement residue and the (phase-locked) CDC — offsets freeze.
// The paper expects "combining DTP with frequency synchronization ...
// will also improve the precision of DTP".
type SyncEResult struct {
	// FreeRunSpreadTicks is max-min of the per-pair offset over the
	// window with independent ±100 ppm oscillators.
	FreeRunSpreadTicks int64
	// SyntonizedSpreadTicks is the same with all frequencies locked.
	SyntonizedSpreadTicks int64
	// FreeRunWorstTicks / SyntonizedWorstTicks are the worst |offset|.
	FreeRunWorstTicks    int64
	SyntonizedWorstTicks int64
}

// AblationSyncE measures the §8 prediction on the paper tree.
func AblationSyncE(o Options) (*SyncEResult, error) {
	o = o.withDefaults(sim.Second)
	run := func(syntonized bool) (spread, worst int64, err error) {
		var opts []core.Option
		if syntonized {
			// All oscillators locked to one reference frequency.
			ppm := map[string]float64{}
			for _, name := range []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11"} {
				ppm[name] = 37.5
			}
			opts = append(opts, core.WithPPM(ppm))
		}
		sch, n, err := settled(o.Seed, topo.PaperTree(), core.DefaultConfig(), 10*sim.Millisecond, opts...)
		if err != nil {
			return 0, 0, err
		}
		var min, max int64
		first := true
		sampleFor(sch, o, 200*sim.Microsecond, func() {
			v := n.TrueOffsetUnits(4, 11) // two leaves, 4 hops apart
			if first || v < min {
				min = v
			}
			if first || v > max {
				max = v
			}
			first = false
			worst = absMax(worst, v)
		})
		return max - min, worst, nil
	}
	var res SyncEResult
	var err error
	if res.FreeRunSpreadTicks, res.FreeRunWorstTicks, err = run(false); err != nil {
		return nil, err
	}
	if res.SyntonizedSpreadTicks, res.SyntonizedWorstTicks, err = run(true); err != nil {
		return nil, err
	}
	return &res, nil
}

// MixedSpeedRow is one point of the §7 mixed-speed validation: a chain
// whose middle hop runs at a different rate than the host links.
type MixedSpeedRow struct {
	Core phy.Speed
	// MaxUnits is the worst end-to-end offset in 0.32 ns base units.
	MaxUnits int64
	// BoundUnits sums 4 port cycles per hop.
	BoundUnits int64
	MaxNs      float64
	BoundNs    float64
}

// MixedSpeedSweep runs 10G-host chains whose core link is 1/10/40/100
// GbE, counters in common base units (§7, Table 2's Delta column).
// Points fan out across o.Jobs workers and merge in speed order.
func MixedSpeedSweep(o Options) ([]MixedSpeedRow, error) {
	o = o.withDefaults(500 * sim.Millisecond)
	coreSpeeds := []phy.Speed{phy.Speed1G, phy.Speed10G, phy.Speed40G, phy.Speed100G}
	return par.Map(o.Jobs, len(coreSpeeds), func(i int) (MixedSpeedRow, error) {
		coreSpeed := coreSpeeds[i]
		speeds := map[int]phy.Speed{0: phy.Speed10G, 1: coreSpeed, 2: phy.Speed10G}
		sch, n, err := settled(o.Seed, topo.Chain(3), core.MixedSpeedConfig(), 10*sim.Millisecond,
			core.WithLinkSpeeds(speeds))
		if err != nil {
			return MixedSpeedRow{}, err
		}
		last := len(n.Devices) - 1
		var worst int64
		sampleFor(sch, o, 50*sim.Microsecond, func() {
			worst = absMax(worst, n.TrueOffsetUnits(0, last))
		})
		bound := n.BoundUnits()
		return MixedSpeedRow{
			Core: coreSpeed, MaxUnits: worst, BoundUnits: bound,
			MaxNs:   float64(worst) * float64(phy.BaseTickFs) / 1e6,
			BoundNs: float64(bound) * float64(phy.BaseTickFs) / 1e6,
		}, nil
	})
}

// MasterModeResult compares §5.4 follow-the-master mode against the
// default max-coupling on the same chain with the same oscillators.
type MasterModeResult struct {
	// MaxModeOffsetTicks / MasterModeOffsetTicks are the worst adjacent
	// offsets in each mode.
	MaxModeOffsetTicks    int64
	MasterModeOffsetTicks int64
	// MaxModeRatePPM / MasterModeRatePPM are the end device's counter
	// rates relative to nominal, in ppm. Max mode tracks the fastest
	// oscillator in the network; master mode tracks the root's.
	MaxModeRatePPM    float64
	MasterModeRatePPM float64
}

// AblationMasterMode runs a 4-hop chain with a deliberately slow master
// (h0 at -100 ppm) and fast followers, in both coupling modes.
func AblationMasterMode(o Options) (*MasterModeResult, error) {
	o = o.withDefaults(sim.Second)
	ppm := map[string]float64{"h0": -100, "sw1": 60, "sw2": 100, "sw3": -20, "h1": 80}
	run := func(master bool) (int64, float64, error) {
		cfg := core.DefaultConfig()
		if master {
			cfg.FollowMaster = true
			cfg.Master = "h0"
		}
		sch, n, err := settled(o.Seed, topo.Chain(4), cfg, 10*sim.Millisecond, core.WithPPM(ppm))
		if err != nil {
			return 0, 0, err
		}
		last := len(n.Devices) - 1
		start := n.Devices[last].GlobalCounter()
		t0 := sch.Now()
		var worst int64
		sampleFor(sch, o, 100*sim.Microsecond, func() {
			if v := n.MaxAdjacentOffset(); v > worst {
				worst = v
			}
		})
		gained := float64(n.Devices[last].GlobalCounter() - start)
		elapsed := (sch.Now() - t0).Seconds()
		ratePPM := (gained/elapsed/156.25e6 - 1) * 1e6
		return worst, ratePPM, nil
	}
	var res MasterModeResult
	var err error
	if res.MaxModeOffsetTicks, res.MaxModeRatePPM, err = run(false); err != nil {
		return nil, err
	}
	if res.MasterModeOffsetTicks, res.MasterModeRatePPM, err = run(true); err != nil {
		return nil, err
	}
	return &res, nil
}

// CDCRow is one point of the clock-domain-crossing ablation.
type CDCRow struct {
	ExtraTicks     int
	MaxOffsetTicks int64
	MeasuredOWDMin int64
	MeasuredOWDMax int64
}

// AblationCDC sweeps the synchronization-FIFO depth: the only random
// element on an idle link (§2.5). Deeper FIFOs widen both the OWD
// measurement and the offset envelope. Points fan out across o.Jobs
// workers and merge in input order.
func AblationCDC(o Options, depths []int) ([]CDCRow, error) {
	o = o.withDefaults(sim.Second)
	return par.Map(o.Jobs, len(depths), func(i int) (CDCRow, error) {
		depth := depths[i]
		cfg := core.DefaultConfig()
		cfg.CDCMaxExtraTicks = depth
		sch, n, err := settled(o.Seed, topo.Pair(), cfg, 10*sim.Millisecond,
			core.WithPPM(map[string]float64{"h0": 100, "h1": -100}))
		if err != nil {
			return CDCRow{}, err
		}
		pa, pb := n.LinkPorts(0)
		owdMin, owdMax := pa.OWDUnits(), pa.OWDUnits()
		if d := pb.OWDUnits(); d < owdMin {
			owdMin = d
		} else if d > owdMax {
			owdMax = d
		}
		var worst int64
		sampleFor(sch, o, 100*sim.Microsecond, func() {
			worst = absMax(worst, n.TrueOffsetUnits(0, 1))
		})
		return CDCRow{
			ExtraTicks: depth, MaxOffsetTicks: worst,
			MeasuredOWDMin: owdMin, MeasuredOWDMax: owdMax,
		}, nil
	})
}
