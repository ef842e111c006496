// Quickstart: synchronize two directly connected machines with DTP and
// watch the offset stay within the paper's 4T = 25.6 ns bound, even
// with worst-case (±100 ppm) oscillators and a fully loaded link.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dtplab/dtp"
)

func main() {
	// Two hosts, one 10 m cable. Pin the oscillators to the extremes
	// the 802.3 standard allows: one fast by 100 ppm, one slow.
	sys, err := dtp.New(dtp.Pair(),
		dtp.WithSeed(42),
		dtp.WithPPM(map[string]float64{"h0": +100, "h1": -100}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Bring the link up: the ports measure their one-way delay (INIT
	// phase) and start exchanging BEACONs in idle PHY blocks.
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		log.Fatal(err)
	}
	// Each BEACON a port receives yields one protocol offset measurement,
	// t2 - t1 - OWD: how far the sender's counter was ahead on arrival.
	var samples int
	var worstSample int64
	sys.OnOffsetSample(func(pair string, offsetTicks int64) {
		samples++
		if offsetTicks < 0 {
			offsetTicks = -offsetTicks
		}
		if offsetTicks > worstSample {
			worstSample = offsetTicks
		}
	})
	owd, _ := sys.MeasuredOWDTicks("h0", "h1")
	fmt.Printf("link up, measured one-way delay: %d ticks (%.1f ns)\n",
		owd, float64(owd)*sys.TickNanos())

	// Without DTP these clocks would drift apart by 200 ppm — 31,250
	// ticks every second. Watch what actually happens.
	fmt.Printf("\n%12s %16s %14s\n", "t", "offset (ticks)", "offset (ns)")
	for i := 0; i < 5; i++ {
		sys.Run(200 * time.Millisecond)
		off, _ := sys.OffsetTicks("h0", "h1")
		fmt.Printf("%12v %16d %14.1f\n", sys.Now(), off, float64(off)*sys.TickNanos())
	}

	// Saturate the link with MTU frames: DTP beacons ride the mandatory
	// interpacket gaps, so precision is unaffected (Figure 6a).
	fmt.Println("\nsaturating the link with MTU-sized frames...")
	sys.SetUniformLoad(1522)
	var worst int64
	for i := 0; i < 5; i++ {
		sys.Run(200 * time.Millisecond)
		off, _ := sys.OffsetTicks("h0", "h1")
		if off < 0 {
			off = -off
		}
		if off > worst {
			worst = off
		}
	}
	fmt.Printf("worst offset under full load: %d ticks = %.1f ns (bound %.1f ns)\n",
		worst, float64(worst)*sys.TickNanos(), sys.BoundNanos())

	// Back to idle links.
	sys.ClearLoad()
	sys.Run(200 * time.Millisecond)
	fmt.Printf("load cleared: offset now %.1f ns\n", sys.MaxOffsetNanos())
	fmt.Printf("%d protocol offset samples, worst |t2 - t1 - OWD| = %d ticks\n", samples, worstSample)
}
