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

// RunPTP reproduces Figures 6d–f on the paper's PTP network: a VelaSync-
// style grandmaster and eight clients behind one cut-through switch
// with realistic transparent clocks.
func RunPTP(o Options, load PTPLoad) (*PTPFigResult, error) {
	o = o.withDefaults(3 * sim.Second)
	sch := sim.NewScheduler()
	g := topo.Star(8)
	fcfg := fabric.DefaultConfig()
	net, err := fabric.New(sch, o.Seed, g, fcfg)
	if err != nil {
		return nil, err
	}
	cfg := ptp.DefaultConfig().Compressed(ptpCompression)
	var clientNodes []int
	for _, h := range g.HostIDs() {
		if h != 1 {
			clientNodes = append(clientNodes, h)
		}
	}
	gm := ptp.NewGrandmaster(net, 1, clientNodes, cfg, o.Seed+1)
	clients := map[string]*ptp.Client{}
	for i, cn := range clientNodes {
		c := ptp.NewClient(net, cn, 1, cfg, o.Seed+10+uint64(i))
		c.Start()
		clients[g.Nodes[cn].Name] = c
	}
	gm.Start()

	// Converge on the idle network first, as the deployment would.
	sch.Run(2 * sim.Second)

	switch load {
	case LoadMedium:
		nodes := clientNodes[:5]
		for i, src := range nodes {
			fabric.NewSprayGen(net, src, nodes, 4.0, 32, o.Seed+100+uint64(i)).Start()
		}
	case LoadHeavy:
		// All clients except the last (s11 in the paper) saturate.
		nodes := clientNodes[:len(clientNodes)-1]
		for i, src := range nodes {
			fabric.NewSprayGen(net, src, nodes, 9.0, 32, o.Seed+200+uint64(i)).Start()
		}
	}

	res := &PTPFigResult{
		Load:            load,
		ClientSummaries: map[string]*stats.Summary{},
		ClientSeries:    map[string]*stats.Series{},
	}
	for name := range clients {
		res.ClientSummaries[name] = stats.NewSummary(0)
		res.ClientSeries[name] = stats.NewSeries(20_000)
	}
	sampleFor(sch, o, 10*sim.Millisecond, func() {
		for name, c := range clients {
			offNs := c.OffsetToMasterPs() / 1000
			res.ClientSummaries[name].Add(offNs)
			res.ClientSeries[name].Add(sch.Now().Seconds(), offNs)
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
