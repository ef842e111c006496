package experiments

import (
	"fmt"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/gps"
	"github.com/dtplab/dtp/internal/ntp"
	"github.com/dtplab/dtp/internal/par"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// Table1Row compares one protocol, reproducing Table 1 with a measured
// precision column derived from an actual run of each protocol's
// reference deployment.
type Table1Row struct {
	Protocol        string
	PaperPrecision  string
	MeasuredWorstNs float64
	Scalability     string
	Overhead        string
	ExtraHW         string
}

// Table1 runs all four protocols and reports their measured worst-case
// precision alongside the paper's qualitative entries.
func Table1(o Options) ([]Table1Row, error) {
	o = o.withDefaults(2 * sim.Second)

	// --- NTP: star LAN, software timestamps. ---
	ntpWorst, err := runNTPWorst(o)
	if err != nil {
		return nil, err
	}
	// --- PTP: idle star with hardware timestamping. ---
	ptpRes, err := RunPTP(Options{Seed: o.Seed, Duration: o.Duration}, LoadIdle)
	if err != nil {
		return nil, err
	}
	// --- GPS: pairwise receiver offsets. ---
	gpsWorst := runGPSWorst(o)
	// --- DTP: paper tree, adjacent true offsets. ---
	dtpRes, err := Fig6a(Options{Seed: o.Seed, Duration: o.Duration})
	if err != nil {
		return nil, err
	}

	return []Table1Row{
		{"NTP", "us", ntpWorst, "Good", "Moderate", "None"},
		{"PTP", "sub-us", ptpRes.WorstNs, "Good", "Moderate", "PTP-enabled devices"},
		{"GPS", "ns", gpsWorst, "Bad", "None", "Timing signal receivers, cables"},
		{"DTP", "ns", float64(dtpRes.MaxTrueTicks) * 6.4, "Good", "None", "DTP-enabled devices"},
	}, nil
}

func runNTPWorst(o Options) (float64, error) {
	sch := sim.NewScheduler()
	net, err := fabric.New(sch, o.Seed, topo.Star(4), fabric.DefaultConfig())
	if err != nil {
		return 0, err
	}
	cfg := ntp.DefaultConfig().Compressed(100)
	ntp.NewServer(net, 1, cfg, o.Seed+1)
	var clients []*ntp.Client
	for i, node := range []int{2, 3, 4, 5} {
		c := ntp.NewClient(net, node, 1, cfg, o.Seed+10+uint64(i))
		c.Start()
		clients = append(clients, c)
	}
	sch.Run(20 * sim.Second) // converge
	worst := 0.0
	sampleFor(sch, o, 10*sim.Millisecond, func() {
		for _, c := range clients {
			worst = absMax(worst, c.OffsetToServerPs()/1000)
		}
	})
	return worst, nil
}

func runGPSWorst(o Options) float64 {
	sch := sim.NewScheduler()
	var rx []*gps.Receiver
	for i := 0; i < 8; i++ {
		rx = append(rx, gps.NewReceiver(sch, o.Seed, fmt.Sprintf("r%d", i)))
	}
	worst := 0.0
	for s := 0; s < 500; s++ {
		sch.RunFor(sim.Millisecond)
		for i := 0; i < len(rx); i++ {
			for j := i + 1; j < len(rx); j++ {
				worst = absMax(worst, (rx[i].Read()-rx[j].Read())/1000)
			}
		}
	}
	return worst
}

// Table2Row is one speed row of Table 2, plus a measured bound from an
// actual two-node DTP run at that speed.
type Table2Row struct {
	Profile phy.Profile
	// MeasuredBoundNs is the worst observed adjacent offset at that
	// speed, in nanoseconds (bound: 4 tick periods).
	MeasuredBoundNs float64
	// BoundNs is 4T at this speed.
	BoundNs float64
}

// Table2 reproduces Table 2: PHY parameters per speed, with DTP run at
// each speed counting in 0.32 ns base units. 1 GbE uses the fragmented
// message adaptation of §7 (four ordered-set fragments per message).
// The per-speed runs are independent simulations and fan out across
// o.Jobs workers; rows merge in profile order.
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults(500 * sim.Millisecond)
	return par.Map(o.Jobs, len(phy.Profiles), func(i int) (Table2Row, error) {
		p := phy.Profiles[i]
		row := Table2Row{Profile: p, BoundNs: 4 * float64(p.PeriodFs) / 1e6}
		worst, err := runSpeedPair(o, p)
		if err != nil {
			return Table2Row{}, err
		}
		row.MeasuredBoundNs = worst
		return row, nil
	})
}

func runSpeedPair(o Options, p phy.Profile) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.SetSpeed(p)
	sch, n, err := settled(o.Seed, topo.Pair(), cfg, 5*sim.Millisecond,
		core.WithPPM(map[string]float64{"h0": 100, "h1": -100}))
	if err != nil {
		return 0, err
	}
	var worst int64
	sampleFor(sch, o, 20*sim.Microsecond, func() {
		worst = absMax(worst, n.TrueOffsetUnits(0, 1))
	})
	// units -> ns: each unit is BaseTick (0.32 ns).
	return float64(worst) * float64(phy.BaseTickFs) / 1e6, nil
}

// BoundSweepRow is one point of the 4TD scaling validation (§3.3).
type BoundSweepRow struct {
	Hops         int
	MaxTicks     int64
	BoundTicks   int64
	WithinBound  bool
	MaxOffsetNs  float64
	BoundNs      float64
	SettledPairs bool
}

// BoundSweep measures the end-to-end offset across chains of increasing
// length, validating the 4TD scaling claim including the fat-tree
// diameter (6 hops -> 153.6 ns). Each chain length is an independent
// simulation; the sweep fans out across o.Jobs workers and merges rows
// in hop order.
func BoundSweep(o Options, maxHops int) ([]BoundSweepRow, error) {
	o = o.withDefaults(500 * sim.Millisecond)
	return par.Map(o.Jobs, maxHops, func(i int) (BoundSweepRow, error) {
		hops := i + 1
		sch, n, err := settled(o.Seed+uint64(hops), topo.Chain(hops), core.DefaultConfig(), 10*sim.Millisecond)
		if err != nil {
			return BoundSweepRow{}, err
		}
		last := len(n.Devices) - 1
		var worst int64
		sampleFor(sch, o, 100*sim.Microsecond, func() {
			worst = absMax(worst, n.TrueOffsetUnits(0, last))
		})
		bound := n.BoundUnits()
		return BoundSweepRow{
			Hops: hops, MaxTicks: worst, BoundTicks: bound,
			WithinBound: worst <= bound,
			MaxOffsetNs: float64(worst) * 6.4, BoundNs: float64(bound) * 6.4,
			SettledPairs: n.AllSynced(),
		}, nil
	})
}

// PTPAblationResult compares transparent-clock models under heavy load.
type PTPAblationResult struct {
	RealisticWorstNs float64
	PerfectWorstNs   float64
	OffWorstNs       float64
	// PriorityWorstNs is realistic TC plus strict-priority queueing for
	// PTP event frames (the PFC/QoS mitigation the paper's citations
	// examine): far better than FIFO, still far from idle because
	// transmission is non-preemptive.
	PriorityWorstNs float64
}

// AblationTCModes quantifies how much of PTP's heavy-load degradation
// is attributable to imperfect transparent clocks, and how much strict
// priority queueing recovers. Each row is Figure 6f's run on differently
// configured switches, so the realistic row is Figure 6f itself.
func AblationTCModes(o Options) (*PTPAblationResult, error) {
	o = o.withDefaults(2 * sim.Second)
	// The four TC configurations are independent deployments; fan them
	// out and merge by position.
	modes := []struct {
		tc       fabric.TCMode
		priority bool
	}{
		{fabric.TCRealistic, false},
		{fabric.TCPerfect, false},
		{fabric.TCOff, false},
		{fabric.TCRealistic, true},
	}
	worst, err := par.Map(o.Jobs, len(modes), func(i int) (float64, error) {
		fcfg := fabric.DefaultConfig()
		fcfg.TC = modes[i].tc
		fcfg.PTPPriority = modes[i].priority
		res, err := runPTP(o, fcfg, LoadHeavy)
		if err != nil {
			return 0, err
		}
		return res.WorstNs, nil
	})
	if err != nil {
		return nil, err
	}
	return &PTPAblationResult{
		RealisticWorstNs: worst[0],
		PerfectWorstNs:   worst[1],
		OffWorstNs:       worst[2],
		PriorityWorstNs:  worst[3],
	}, nil
}
