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

// ptpStar is the paper's PTP deployment: a VelaSync-style grandmaster
// on node 1 and a client on every other host of an eight-host star
// behind one cut-through switch.
type ptpStar struct {
	sch     *sim.Scheduler
	net     *fabric.Network
	nodes   []int // client node IDs
	names   []string
	clients []*ptp.Client
}

// newPTPStar builds the star on switches configured by fcfg and
// converges it for 2 s on the idle network, as the deployment would.
func newPTPStar(seed uint64, fcfg fabric.Config) (*ptpStar, error) {
	s := &ptpStar{sch: sim.NewScheduler()}
	g := topo.Star(8)
	var err error
	if s.net, err = fabric.New(s.sch, seed, g, fcfg); err != nil {
		return nil, err
	}
	cfg := ptp.DefaultConfig().Compressed(ptpCompression)
	for _, h := range g.HostIDs() {
		if h != 1 {
			s.nodes = append(s.nodes, h)
			s.names = append(s.names, g.Nodes[h].Name)
		}
	}
	gm := ptp.NewGrandmaster(s.net, 1, s.nodes, cfg, seed+1)
	for i, cn := range s.nodes {
		c := ptp.NewClient(s.net, cn, 1, cfg, seed+10+uint64(i))
		c.Start()
		s.clients = append(s.clients, c)
	}
	gm.Start()
	s.sch.Run(2 * sim.Second)
	return s, nil
}

// spray starts background traffic: each of the first n clients sprays
// the others of that group at gbps.
func (s *ptpStar) spray(n int, gbps float64, seed uint64) {
	nodes := s.nodes[:n]
	for i, src := range nodes {
		fabric.NewSprayGen(s.net, src, nodes, gbps, 32, seed+uint64(i)).Start()
	}
}

// sprayHeavy saturates every client link except the last (s11 in the
// paper) at 9 Gbps: the load of Figure 6f.
func (s *ptpStar) sprayHeavy(seed uint64) { s.spray(len(s.nodes)-1, 9.0, seed+200) }

// RunPTP reproduces Figures 6d–f on the paper's PTP network with
// realistic transparent clocks.
func RunPTP(o Options, load PTPLoad) (*PTPFigResult, error) {
	o = o.withDefaults(3 * sim.Second)
	star, err := newPTPStar(o.Seed, fabric.DefaultConfig())
	if err != nil {
		return nil, err
	}
	switch load {
	case LoadMedium:
		star.spray(5, 4.0, o.Seed+100)
	case LoadHeavy:
		star.sprayHeavy(o.Seed)
	}

	res := &PTPFigResult{
		Load:            load,
		ClientSummaries: map[string]*stats.Summary{},
		ClientSeries:    map[string]*stats.Series{},
	}
	for _, name := range star.names {
		res.ClientSummaries[name] = stats.NewSummary(0)
		res.ClientSeries[name] = stats.NewSeries(20_000)
	}
	sampleFor(star.sch, o, 10*sim.Millisecond, func() {
		for i, c := range star.clients {
			offNs := c.OffsetToMasterPs() / 1000
			res.ClientSummaries[star.names[i]].Add(offNs)
			res.ClientSeries[star.names[i]].Add(star.sch.Now().Seconds(), offNs)
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
