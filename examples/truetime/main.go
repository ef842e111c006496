// TrueTime: the paper's §1 motivation quantified. Spanner-style
// systems expose time as an uncertainty interval [earliest, latest]
// with half-width ε, and external consistency forces a commit to wait
// out 2ε before acknowledging. Tighter clock synchronization therefore
// buys transaction throughput directly.
//
// This example measures ε for the three synchronization stacks built in
// this repository — NTP (software timestamps), PTP (hardware
// timestamps, idle network), and DTP (PHY-level, bounded) — and shows
// what each means for dependent-transaction rates and for timestamp
// ordering of causally related events.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"github.com/dtplab/dtp"
	"github.com/dtplab/dtp/internal/fabric"
	"github.com/dtplab/dtp/internal/ntp"
	"github.com/dtplab/dtp/internal/ptp"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/topo"
)

// epsDTP measures the DTP software-clock uncertainty between two
// servers in the paper tree: the worst daemon-vs-daemon disagreement,
// plus the 4TD+8T analytic bound as the interval the API would expose.
func epsDTP() (measuredNs, boundNs float64) {
	sys, err := dtp.New(dtp.PaperTree(), dtp.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		log.Fatal(err)
	}
	a, _ := sys.Daemon(dtp.DaemonOptions{Host: "s4", CalInterval: 10 * time.Millisecond})
	b, _ := sys.Daemon(dtp.DaemonOptions{Host: "s11", CalInterval: 10 * time.Millisecond})
	sys.Run(500 * time.Millisecond)
	worst := 0.0
	for i := 0; i < 300; i++ {
		sys.Run(time.Millisecond)
		d := math.Abs(a.OffsetTicks()-b.OffsetTicks()) * sys.TickNanos()
		if d > worst {
			worst = d
		}
	}
	return worst, sys.BoundNanos() + 8*sys.TickNanos()
}

// epsPTP measures worst client offset on an idle PTP star.
func epsPTP() float64 {
	sch := sim.NewScheduler()
	g := topo.Star(4)
	net, err := fabric.New(sch, 7, g, fabric.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := ptp.DefaultConfig().Compressed(50)
	clients := []int{2, 3, 4, 5}
	gm := ptp.NewGrandmaster(net, 1, clients, cfg, 8)
	var cs []*ptp.Client
	for i, c := range clients {
		cl := ptp.NewClient(net, c, 1, cfg, uint64(9+i))
		cl.Start()
		cs = append(cs, cl)
	}
	gm.Start()
	sch.Run(2 * sim.Second)
	worst := 0.0
	for i := 0; i < 300; i++ {
		sch.RunFor(10 * sim.Millisecond)
		for _, c := range cs {
			if o := math.Abs(c.OffsetToMasterPs()) / 1000; o > worst {
				worst = o
			}
		}
	}
	return worst
}

// epsNTP measures worst client offset on an NTP star.
func epsNTP() float64 {
	sch := sim.NewScheduler()
	net, err := fabric.New(sch, 11, topo.Star(4), fabric.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := ntp.DefaultConfig().Compressed(100)
	ntp.NewServer(net, 1, cfg, 12)
	var cs []*ntp.Client
	for i, n := range []int{2, 3, 4, 5} {
		c := ntp.NewClient(net, n, 1, cfg, uint64(13+i))
		c.Start()
		cs = append(cs, c)
	}
	sch.Run(20 * sim.Second)
	worst := 0.0
	for i := 0; i < 300; i++ {
		sch.RunFor(10 * sim.Millisecond)
		for _, c := range cs {
			if o := math.Abs(c.OffsetToServerPs()) / 1e3; o > worst {
				worst = o
			}
		}
	}
	return worst
}

func main() {
	fmt.Println("measuring clock uncertainty ε on each stack (simulated)...")
	dtpMeasured, dtpBound := epsDTP()
	ptpEps := epsPTP()
	ntpEps := epsNTP()

	fmt.Printf("\n%-22s %14s %18s %22s\n", "stack", "ε", "commit-wait 2ε", "dependent txns/s")
	row := func(name string, epsNs float64) {
		fmt.Printf("%-22s %11.0f ns %15.0f ns %22.0f\n", name, epsNs, 2*epsNs, 1e9/(2*epsNs))
	}
	row("NTP (software)", ntpEps)
	row("PTP (idle network)", ptpEps)
	row("DTP (measured)", dtpMeasured)
	row("DTP (4TD+8T bound)", dtpBound)

	// Ordering: two causally related events 1 us apart on different
	// servers. A timestamp order inversion is possible whenever the
	// inter-event gap is inside the uncertainty.
	fmt.Println("\ncausally ordered events 1 us apart on different servers:")
	for _, s := range []struct {
		name string
		eps  float64
	}{{"NTP", ntpEps}, {"PTP", ptpEps}, {"DTP", dtpMeasured}} {
		if s.eps*2 > 1000 {
			fmt.Printf("  %-4s ε=%.0fns: timestamp order NOT trustworthy (2ε > gap)\n", s.name, s.eps)
		} else {
			fmt.Printf("  %-4s ε=%.0fns: timestamp order provably correct\n", s.name, s.eps)
		}
	}
	fmt.Println("\nan order of magnitude of synchronization buys an order of magnitude")
	fmt.Println("of dependent-transaction throughput — the paper's §1 argument.")
}
