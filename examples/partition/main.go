// Network dynamics (§3.2): partitions and late joiners. DTP has no
// master — every device couples to the maximum counter it can hear —
// so when a partition heals, BEACON-JOIN messages re-merge the two
// timescales onto the larger one, without any counter ever moving
// backwards.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dtplab/dtp"
)

func main() {
	sys, err := dtp.New(dtp.PaperTree(), dtp.WithSeed(23))
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		log.Fatal(err)
	}
	report := func(label string) {
		off, _ := sys.OffsetTicks("s0", "s3")
		c0, _ := sys.Counter("s0")
		c3, _ := sys.Counter("s3")
		fmt.Printf("%-28s s0=%d s3=%d offset=%d ticks\n", label, c0, c3, off)
	}
	report("synchronized:")

	// Cut the s0-s3 uplink: {s3, s9, s10, s11} becomes its own island.
	if err := sys.CutLink("s0", "s3"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- cable s0-s3 pulled; islands drift on their own oscillators --")
	for i := 0; i < 3; i++ {
		sys.Run(100 * time.Millisecond)
		report(fmt.Sprintf("t=%v:", sys.Now()))
	}

	// Heal: the ports re-run INIT, exchange BEACON-JOIN, and the island
	// with the smaller counter adopts the larger one.
	before3, _ := sys.Counter("s3")
	before0, _ := sys.Counter("s0")
	if err := sys.RestoreLink("s0", "s3"); err != nil {
		log.Fatal(err)
	}
	if err := sys.RunUntilSynced(time.Second); err != nil {
		log.Fatal(err)
	}
	sys.Run(10 * time.Millisecond)
	fmt.Println("\n-- cable restored; BEACON-JOIN merges the islands --")
	report("healed:")
	after3, _ := sys.Counter("s3")
	after0, _ := sys.Counter("s0")
	if after3 < before3 || after0 < before0 {
		log.Fatal("BUG: a counter moved backwards")
	}
	fmt.Println("\nno counter moved backwards; the slow island jumped forward to the fast one")

	sys.Run(100 * time.Millisecond)
	fmt.Printf("steady state: max offset %d ticks (bound %d ticks = %.1f ns)\n",
		sys.MaxOffsetTicks(), sys.BoundTicks(), sys.BoundNanos())

	// The §5.4 extension trades masterlessness for a chosen rate: with a
	// master, every device follows s0's clock along a spanning tree
	// instead of the fastest oscillator it can hear.
	slow := map[string]float64{"s0": -100}
	for _, name := range sys.Devices()[1:] {
		slow[name] = 100
	}
	fmt.Println("\n-- s0 slow by 100 ppm, every other oscillator fast by 100 ppm --")
	for _, master := range []string{"", "s0"} {
		opts := []dtp.Option{dtp.WithSeed(23), dtp.WithPPM(slow)}
		label := "masterless"
		if master != "" {
			opts, label = append(opts, dtp.WithMaster(master)), "WithMaster(s0)"
		}
		m, err := dtp.New(dtp.PaperTree(), opts...)
		if err != nil {
			log.Fatal(err)
		}
		m.Start()
		if err := m.RunUntilSynced(time.Second); err != nil {
			log.Fatal(err)
		}
		c0, _ := m.Counter("s11")
		m.Run(100 * time.Millisecond)
		c1, _ := m.Counter("s11")
		ppm := (float64(c1-c0)/(156.25e6*0.1) - 1) * 1e6
		fmt.Printf("%-16s network rate %+6.1f ppm, max offset %d ticks\n", label, ppm, m.MaxOffsetTicks())
	}
}
