// One-way delay measurement — the paper's opening motivation (§1):
// with clocks synchronized to tens of nanoseconds, one-way delay can be
// measured directly (receive timestamp minus send timestamp), with no
// round-trip halving and no symmetric-path assumption.
//
// Two applications timestamp events with their hosts' DTP daemon clocks
// across the paper-tree datacenter. Messages take an asymmetric,
// variable path delay; the example compares the DTP-measured OWD
// against the true delay, showing errors at the DTP software precision
// (tens of ns) rather than the milliseconds NTP would contribute.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"time"

	"github.com/dtplab/dtp"
)

func main() {
	sys, err := dtp.New(dtp.PaperTree(), dtp.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()
	if err := sys.RunUntilSynced(time.Second); err != nil {
		log.Fatal(err)
	}

	// Application daemons on two hosts four hops apart.
	sender, err := sys.Daemon(dtp.DaemonOptions{Host: "s4", CalInterval: 10 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	receiver, err := sys.Daemon(dtp.DaemonOptions{Host: "s11", CalInterval: 10 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(500 * time.Millisecond) // daemons calibrate

	rng := rand.New(rand.NewPCG(1, 2))
	tick := sys.TickNanos()

	fmt.Println("measuring one-way delays of 20 application messages s4 -> s11:")
	fmt.Printf("%6s %14s %14s %12s\n", "msg", "true (ns)", "measured (ns)", "error (ns)")
	var worstErr float64
	for i := 0; i < 20; i++ {
		// The application stamps the message with its local DTP time.
		t0 := sender.Counter() * tick // ns

		// The message crosses the datacenter: base path latency plus
		// random queueing — asymmetric and unknowable to the endpoints,
		// which is exactly why RTT/2 estimates fail.
		delayNs := 5000 + rng.Float64()*20000
		sys.Run(time.Duration(delayNs) * time.Nanosecond)

		// The receiver stamps arrival with its own DTP time. No
		// communication with the sender's clock is needed.
		t1 := receiver.Counter() * tick
		measured := t1 - t0
		errNs := measured - delayNs
		if math.Abs(errNs) > worstErr {
			worstErr = math.Abs(errNs)
		}
		fmt.Printf("%6d %14.0f %14.0f %12.1f\n", i, delayNs, measured, errNs)

		sys.Run(5 * time.Millisecond)
	}
	fmt.Printf("\nworst measurement error: %.1f ns", worstErr)
	fmt.Printf(" (paper's end-to-end software precision: 4TD+8T = %.1f ns)\n",
		sys.BoundNanos()+8*tick)
}
