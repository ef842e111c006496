// Mixed speeds (§7): datacenters are not homogeneous — servers attach
// at 10 GbE (or 1 GbE) while switch uplinks run 40 or 100 GbE. DTP
// handles this by counting in a common 0.32 ns base unit: each port
// advances its counter by its speed's ∆ per cycle (Table 2), so one
// timescale spans the whole fabric. This example synchronizes a chain
// whose middle link is upgraded step by step: the provable 4-cycles-
// per-hop bound tightens with every upgrade, while the measured offset
// stays pinned by the (unchanged) 10 GbE host links.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dtplab/dtp"
)

func run(speed dtp.Option) (worstNs, boundNs float64) {
	sys, err := dtp.New(dtp.Chain(3), dtp.WithSeed(9), speed)
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		log.Fatal(err)
	}
	var worst int64
	for i := 0; i < 100; i++ {
		sys.Run(2 * time.Millisecond)
		off, _ := sys.OffsetTicks("h0", "h1")
		if off < 0 {
			off = -off
		}
		if off > worst {
			worst = off
		}
	}
	return float64(worst) * sys.TickNanos(), sys.BoundNanos()
}

func main() {
	fmt.Println("two 10 GbE hosts, three hops; upgrading the switch interconnect:")
	fmt.Printf("%12s %20s %20s\n", "core link", "worst h0-h1 offset", "end-to-end bound")
	for _, core := range []dtp.Speed{dtp.Speed1G, dtp.Speed10G, dtp.Speed40G, dtp.Speed100G} {
		worst, bound := run(dtp.WithMixedSpeeds(dtp.LinkSpeed{A: "sw1", B: "sw2", Speed: core}))
		fmt.Printf("%12v %17.2f ns %17.2f ns\n", core, worst, bound)
	}
	worst, bound := run(dtp.WithSpeed(dtp.Speed40G))
	fmt.Printf("%12s %17.2f ns %17.2f ns\n", "all 40G", worst, bound)
	fmt.Println("\nupgrading the core shrinks its contribution to the 4TD bound; the")
	fmt.Println("remaining offset is pinned by the 10 GbE host links — the §7 picture.")
	fmt.Println("With every link at 40 GbE (the last row), the host links tighten too.")
}
