package experiments

import (
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/ptp"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/stats"
	"github.com/dtplab/dtp/internal/topo"
)

// PTPLoad selects the workload of Figures 6d–f.
type PTPLoad int

const (
	// LoadIdle: no background traffic (Fig. 6d).
	LoadIdle PTPLoad = iota
	// LoadMedium: five nodes spraying at 4 Gbps (Fig. 6e).
	LoadMedium
	// LoadHeavy: all client links (except s11's) saturated at 9 Gbps
	// (Fig. 6f).
	LoadHeavy
)

func (l PTPLoad) String() string {
	switch l {
	case LoadIdle:
		return "idle"
	case LoadMedium:
		return "medium"
	default:
		return "heavy"
	}
}

// PTPFigResult is the output of the PTP experiments.
type PTPFigResult struct {
	Load PTPLoad
	// ClientSummaries holds ground-truth offset-to-grandmaster (ns)
	// per client name.
	ClientSummaries map[string]*stats.Summary
	ClientSeries    map[string]*stats.Series
	// WorstNs is the largest |offset| across clients after convergence.
	WorstNs float64
}

// Compression applied to PTP experiments: a paper hour at 1 Hz sync
// becomes simulated seconds at 50 Hz. Documented in EXPERIMENTS.md.
const ptpCompression = 50

// RunPTP reproduces Figures 6d–f on the paper's PTP network with
// realistic transparent clocks.
func RunPTP(o Options, load PTPLoad) (*PTPFigResult, error) {
	return runPTP(o.withDefaults(3*sim.Second), fabric.DefaultConfig(), load)
}

// runPTP is the one body of Figures 6d–f and of every row of
// AblationTCModes. It builds the paper's PTP deployment on switches
// configured by fcfg — a VelaSync-style grandmaster on node 1 and a
// client on every other host of an eight-host star behind one
// cut-through switch — converges it for 2 s on the idle network, as the
// deployment would, then starts the load and samples every client's
// offset over o.Duration.
func runPTP(o Options, fcfg fabric.Config, load PTPLoad) (*PTPFigResult, error) {
	sch := sim.NewScheduler()
	g := topo.Star(8)
	net, err := fabric.New(sch, o.Seed, g, fcfg)
	if err != nil {
		return nil, err
	}
	cfg := ptp.DefaultConfig().Compressed(ptpCompression)
	var nodes []int // client node IDs
	var names []string
	for _, h := range g.HostIDs() {
		if h != 1 {
			nodes = append(nodes, h)
			names = append(names, g.Nodes[h].Name)
		}
	}
	gm := ptp.NewGrandmaster(net, 1, nodes, cfg, o.Seed+1)
	var clients []*ptp.Client
	for i, cn := range nodes {
		c := ptp.NewClient(net, cn, 1, cfg, o.Seed+10+uint64(i))
		c.Start()
		clients = append(clients, c)
	}
	gm.Start()
	sch.Run(2 * sim.Second)

	// Each of the first n clients sprays the others of that group.
	spray := func(n int, gbps float64, seed uint64) {
		for i, src := range nodes[:n] {
			fabric.NewSprayGen(net, src, nodes[:n], gbps, 32, seed+uint64(i)).Start()
		}
	}
	switch load {
	case LoadMedium:
		spray(5, 4.0, o.Seed+100)
	case LoadHeavy:
		// Every client link except the last (s11 in the paper).
		spray(len(nodes)-1, 9.0, o.Seed+200)
	}

	res := &PTPFigResult{
		Load:            load,
		ClientSummaries: map[string]*stats.Summary{},
		ClientSeries:    map[string]*stats.Series{},
	}
	for _, name := range names {
		res.ClientSummaries[name] = stats.NewSummary(0)
		res.ClientSeries[name] = stats.NewSeries(20_000)
	}
	sampleFor(sch, o, 10*sim.Millisecond, func() {
		for i, c := range clients {
			offNs := c.OffsetToMasterPs() / 1000
			res.ClientSummaries[names[i]].Add(offNs)
			res.ClientSeries[names[i]].Add(sch.Now().Seconds(), offNs)
		}
	})
	for _, s := range res.ClientSummaries {
		if s.MaxAbs() > res.WorstNs {
			res.WorstNs = s.MaxAbs()
		}
	}
	return res, nil
}

// Fig6d reproduces Figure 6d (idle network). Paper: hundreds of ns.
func Fig6d(o Options) (*PTPFigResult, error) { return RunPTP(o, LoadIdle) }

// Fig6e reproduces Figure 6e (medium load). Paper: up to ~50 us.
func Fig6e(o Options) (*PTPFigResult, error) { return RunPTP(o, LoadMedium) }

// Fig6f reproduces Figure 6f (heavy load). Paper: hundreds of us.
func Fig6f(o Options) (*PTPFigResult, error) { return RunPTP(o, LoadHeavy) }
