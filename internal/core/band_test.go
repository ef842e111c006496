package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"github.com/dtplab/dtp/internal/link"
	"github.com/dtplab/dtp/internal/phy"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// bandPair is a pair on a 600 m cable: a flight is in the air for about
// 3.2 µs, so two or three of each port's beacons, spaced 1.28 µs, are in
// flight at once, and so are the runs of band landings that a slow beat
// between the two oscillators puts on consecutive beacons.
func bandPair() topo.Graph {
	g := topo.Pair()
	g.Links[0].LengthM = 600
	return g
}

// bandFlight is a flight toward h1 as its launch left it.
type bandFlight struct {
	launch, t2, t3 sim.Time
	drew           bool
	draw           int // the band draw taken at launch, when drew
}

// bandRun runs bandPair at seed 1 without wander to 5 ms, with mutate
// armed on the built network. Fused, it watches h1's inbound wire:
// every flight launched toward h1 (flights), and the flights handed back
// with a draw to undo (undone). It reports every port's state and stats,
// each device's counter, and, traced, a digest of the trace per emitter.
func bandRun(t *testing.T, fused, traced bool, mutate func(n *Network)) (got []string, flights []bandFlight, undone int) {
	t.Helper()
	defer SetFusedChain(SetFusedChain(fused))
	var tr *telemetry.Tracer
	traces := map[string]uint64{}
	if traced {
		tr = telemetry.NewTracer(64)
		tr.SetKinds()
		tr.OnRecord(func(e telemetry.Event) {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d %v %d %d %d %s|", traces[e.Who], e.At, e.Kind, e.V1, e.V2, e.Detail)
			traces[e.Who] = h.Sum64()
		})
	}
	sch := sim.NewScheduler()
	n, err := NewNetwork(sch, 1, bandPair(), DefaultConfig(), WithTelemetry(nil, tr))
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := n.LinkPorts(0)
	tx.wire.OnFlights(func(f *link.Flight) {
		rx.land(f)
		bf := bandFlight{launch: sch.Now(), t2: f.T2, t3: f.T3, drew: f.Drew}
		if f.Drew {
			m := rx.rng.Mark()
			rx.rng.Rewind(f.Mark)
			bf.draw = rx.rng.IntN(2)
			rx.rng.Rewind(m)
		}
		flights = append(flights, bf)
	}, func(f link.Flight, from link.Stage) sim.Event {
		if f.Drew {
			undone++
		}
		return tx.refile(f, from)
	})
	if mutate != nil {
		mutate(n)
	}
	n.Start()
	sch.Run(5 * sim.Millisecond)
	for _, d := range n.Devices {
		got = append(got, fmt.Sprintf("%s counter=%d", d.Name(), d.GlobalCounter()))
		for _, p := range d.Ports() {
			sent, received, ignored, jumps := p.Stats()
			got = append(got, fmt.Sprintf("  %s %s owd=%d beacons=%d/%d/%d/%d dropped_down=%d",
				p.Name(), p.State(), p.OWDUnits(), sent, received, ignored, jumps, p.DroppedDown()))
		}
	}
	emitters := make([]string, 0, len(traces))
	for who := range traces {
		emitters = append(emitters, who)
	}
	sort.Strings(emitters)
	for _, who := range emitters {
		got = append(got, fmt.Sprintf("trace %s %x", who, traces[who]))
	}
	return got, flights, undone
}

// A band landing's draw is taken at launch. When the flight is handed
// back before it lands, the receiver's stream goes back to before the
// earliest draw handed back, and while a block bound for the port is
// still on the per-stage path, band landings wait for their crossing to
// draw: in every case the port's stream draws what the five-event
// chain's crossings draw, in their order. Each case aims at band flights
// toward h1 found by an unmutated run, which the mutated run follows up
// to the first mutation:
//
//   - h1's rate changes while two drawn flights are in the air, between
//     the later one's launch and the earlier one's landing;
//   - h1 goes down at that instant and comes back up before the landing;
//   - h0's wire gains a BER while a drawn flight is short of the far
//     end, which re-files it to the per-stage path, and loses it again
//     before the next flight, itself in the band and with the other
//     draw, launches while the first is still bound for h1;
//   - a beacon forged toward h1 while that drawn flight is on the cable
//     crosses, in the band, before it.
func TestBandLandingHandedBack(t *testing.T) {
	_, flights, _ := bandRun(t, true, false, nil)
	var overlap, differ int
	for i := 1; i < len(flights) && (overlap == 0 || differ == 0); i++ {
		prev, f := flights[i-1], flights[i]
		if prev.launch < 1500*sim.Microsecond || !prev.drew || !f.drew || f.launch >= prev.t3 {
			continue
		}
		if overlap == 0 {
			overlap = i
		}
		if differ == 0 && prev.draw != f.draw {
			differ = i
		}
	}
	if overlap == 0 || differ == 0 {
		t.Fatalf("no band flights to aim at: overlapping pair %d, pair with differing draws %d", overlap, differ)
	}
	first, second := flights[overlap-1], flights[overlap]
	at := (second.launch + first.t3) / 2
	f, g := flights[differ-1], flights[differ]
	berOn := (f.launch + f.t2) / 2
	berOff := (berOn + g.launch) / 2
	cases := []struct {
		name   string
		mutate func(n *Network)
	}{
		{"receiver-rate", func(n *Network) {
			h1 := n.Devices[1]
			n.Sch.At(at, func() { h1.Clock().AdjustPPM(h1.PPM() + 1) })
		}},
		{"receiver-down", func(n *Network) {
			_, rx := n.LinkPorts(0)
			n.Sch.At(at, rx.Down)
			n.Sch.At((at+first.t3)/2, rx.Up)
		}},
		{"sender-ber", func(n *Network) {
			w, _ := n.LinkWires(0)
			n.Sch.At(berOn, func() { w.SetBER(1e-4) })
			n.Sch.At(berOff, func() { w.SetBER(0) })
		}},
		{"spoofed-beacon", func(n *Network) {
			tx, rx := n.LinkPorts(0)
			n.Sch.At(f.t2-sim.Microsecond, func() {
				// Forge a beacon whose crossing, long before the one of
				// the drawn flight on the cable, lands in the band too.
				rxDelay := tx.cycleDur(phy.DefaultRxPipelineTicks)
				at := n.Sch.Now()
				for _, metastable := rx.cdcTick(at + rxDelay); !metastable; _, metastable = rx.cdcTick(at + rxDelay) {
					at += 20 * sim.Picosecond
				}
				n.Sch.At(at, func() { rx.InjectSpoofedBeacon(tx.dev.GlobalCounter()) })
			})
		}},
	}
	for _, c := range cases {
		for _, traced := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/traced=%v", c.name, traced), func(t *testing.T) {
				fused, _, undone := bandRun(t, true, traced, c.mutate)
				if undone == 0 {
					t.Fatal("no flight was handed back with a draw to undo")
				}
				chain, _, _ := bandRun(t, false, traced, c.mutate)
				if len(fused) != len(chain) {
					t.Fatalf("%d lines, five-event chain %d", len(fused), len(chain))
				}
				for i := range chain {
					if fused[i] != chain[i] {
						t.Fatalf("%q, five-event chain %q", fused[i], chain[i])
					}
				}
			})
		}
	}
}
