package ntp

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

func deploy(t *testing.T, seed uint64, cfg Config) (*sim.Scheduler, *fabric.Network, []*Client) {
	t.Helper()
	sch := sim.NewScheduler()
	net, err := fabric.New(sch, seed, topo.Star(4), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewServer(net, 1, cfg, seed+1)
	var clients []*Client
	for i, node := range []int{2, 3, 4, 5} {
		clients = append(clients, NewClient(net, node, 1, cfg, seed+10+uint64(i)))
	}
	return sch, net, clients
}

func TestNTPConvergesToMicroseconds(t *testing.T) {
	cfg := DefaultConfig().Compressed() // poll every 160 ms
	sch, _, clients := deploy(t, 3, cfg)
	sch.Run(20 * sim.Second) // >100 polls
	worst := 0.0
	for i := 0; i < 100; i++ {
		sch.RunFor(100 * sim.Millisecond)
		for _, c := range clients {
			if o := math.Abs(c.OffsetToServerPs()) / 1e6; o > worst {
				worst = o
			}
		}
	}
	// Table 1: NTP achieves microsecond-class precision in a LAN —
	// orders of magnitude worse than PTP's idle hundreds of ns, far
	// better than WAN milliseconds.
	if worst > 500 {
		t.Fatalf("NTP offset reached %.1f us; want microsecond class", worst)
	}
	if worst < 0.5 {
		t.Fatalf("NTP offset %.3f us is implausibly good for software timestamps", worst)
	}
}

func TestNTPWorseThanHardwareTimestamping(t *testing.T) {
	// The structural claim of Table 1: NTP (software stack) is much
	// coarser than sub-microsecond methods. Verified by magnitude above;
	// here check that the stack jitter actually dominates: zeroing it
	// improves precision by at least an order of magnitude.
	run := func(medianUs float64) float64 {
		cfg := DefaultConfig().Compressed()
		cfg.StackMedianUs = medianUs
		sch, _, clients := deploy(t, 7, cfg)
		sch.Run(20 * sim.Second)
		worst := 0.0
		for i := 0; i < 100; i++ {
			sch.RunFor(100 * sim.Millisecond)
			for _, c := range clients {
				if o := math.Abs(c.OffsetToServerPs()); o > worst {
					worst = o
				}
			}
		}
		return worst
	}
	noisy := run(15)
	clean := run(0.05)
	if clean*5 > noisy {
		t.Fatalf("stack jitter not dominant: noisy %.0f ps vs clean %.0f ps", noisy, clean)
	}
}

func TestNTPStepsOnStartup(t *testing.T) {
	cfg := DefaultConfig().Compressed()
	sch, _, clients := deploy(t, 11, cfg)
	sch.Run(5 * sim.Second)
	for _, c := range clients {
		polls, replies, steps := c.polls, c.replies, c.steps
		if polls == 0 || replies == 0 {
			t.Fatal("client not exchanging")
		}
		if steps == 0 {
			t.Fatal("client with ±10ms initial error never stepped")
		}
	}
}

func TestNTPClockFilterPrefersMinDelay(t *testing.T) {
	cfg := DefaultConfig()
	sch := sim.NewScheduler()
	net, err := fabric.New(sch, 1, topo.Star(1), fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(net, 2, 1, cfg, 5)
	var got []float64
	c.OnSample = func(off float64) { got = append(got, off) }
	// Inject: a good sample (low delay) then a bad one (high delay).
	// The filter must keep preferring the min-delay sample: after the
	// first apply slews out half of 100, the retained good sample is
	// re-referenced to 50 and must win over the 99999 outlier.
	c.synced = true
	c.apply(100, 1000)
	c.apply(99999, 50000)
	if len(got) != 2 || got[0] != 100 || got[1] != 50 {
		t.Fatalf("filter output %v, want [100 50]", got)
	}
}

func TestNTPDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := DefaultConfig().Compressed()
		sch, _, clients := deploy(t, 21, cfg)
		sch.Run(10 * sim.Second)
		return clients[0].OffsetToServerPs()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}
