package gps

import (
	"math"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

func TestReceiverPairwisePrecision(t *testing.T) {
	// The paper: "GPS provides about 100 nanosecond precision in
	// practice." Pairwise offsets between receivers must land in that
	// regime: worst-case within a few hundred ns, typically around 100.
	sch := sim.NewScheduler()
	var rx []*Receiver
	for i := 0; i < 8; i++ {
		rx = append(rx, NewReceiver(sch, 42, string(rune('a'+i))))
	}
	worst := 0.0
	for s := 0; s < 1000; s++ {
		sch.RunFor(sim.Millisecond)
		for i := 0; i < len(rx); i++ {
			for j := i + 1; j < len(rx); j++ {
				if d := math.Abs(rx[i].Read()-rx[j].Read()) / 1000; d > worst {
					worst = d
				}
			}
		}
	}
	if worst > 400 {
		t.Fatalf("pairwise GPS offset reached %.0f ns; want ~100ns class", worst)
	}
	if worst < 20 {
		t.Fatalf("pairwise GPS offset %.0f ns implausibly tight", worst)
	}
}

// TestReceiverBiasIsStable: the mean error over 1000 reads is the fixed
// bias (read noise averages to 20 ns/√1000 ≈ 0.6 ns), and it does not
// move with time.
func TestReceiverBiasIsStable(t *testing.T) {
	sch := sim.NewScheduler()
	r := NewReceiver(sch, 7, "x")
	meanOffset := func() float64 {
		sum := 0.0
		for i := 0; i < 1000; i++ {
			sum += r.offsetPs()
		}
		return sum / 1000
	}
	sch.Run(sim.Second)
	a := meanOffset()
	sch.RunFor(sim.Second)
	b := meanOffset()
	if math.Abs(a-b) > 5_000 {
		t.Fatalf("receiver bias moved: %.0f -> %.0f ps", a, b)
	}
	if math.Abs(a) > biasMaxPs+5_000 {
		t.Fatalf("bias %.0f ps outside ±50ns", a)
	}
}

func TestReceiversHaveDistinctBiases(t *testing.T) {
	sch := sim.NewScheduler()
	a := NewReceiver(sch, 7, "a")
	b := NewReceiver(sch, 7, "b")
	if a.bias == b.bias {
		t.Fatal("two receivers drew identical biases")
	}
}

func TestReadTracksTrueTime(t *testing.T) {
	sch := sim.NewScheduler()
	r := NewReceiver(sch, 9, "t")
	sch.Run(10 * sim.Second)
	if math.Abs(r.Read()-float64(10*sim.Second)) > 500_000 {
		t.Fatal("receiver lost true time")
	}
}

// offsetPs returns this receiver's instantaneous error versus true time.
func (r *Receiver) offsetPs() float64 { return r.Read() - float64(r.sch.Now()) }
