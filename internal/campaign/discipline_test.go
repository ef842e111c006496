package campaign

import (
	"bytes"
	"reflect"
	"testing"
)

// TestDisciplineAxisExpansion pins the grid-order contract for the
// Disciplines dimension: discipline sits between liars and seed, so
// seed sweeps of one estimator stay contiguous.
func TestDisciplineAxisExpansion(t *testing.T) {
	g := Grid{
		Seeds:       []uint64{1, 2},
		Disciplines: []string{"ma", "lad"},
	}
	pts := g.Expand()
	want := []struct {
		disc string
		seed uint64
	}{{"ma", 1}, {"ma", 2}, {"lad", 1}, {"lad", 2}}
	if len(pts) != len(want) {
		t.Fatalf("expanded %d points, want %d", len(pts), len(want))
	}
	for i, w := range want {
		if pts[i].Discipline != w.disc || pts[i].Seed != w.seed {
			t.Fatalf("point %d = discipline=%q seed=%d, want %q/%d",
				i, pts[i].Discipline, pts[i].Seed, w.disc, w.seed)
		}
	}
}

func TestDisciplineAxisValidate(t *testing.T) {
	ok := Grid{Disciplines: []string{"", "ma", "pll", "theilsen", "lad"}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid discipline specs rejected: %v", err)
	}
	for _, spec := range []string{"kalman", "lad:dropk=2"} {
		if err := (Grid{Disciplines: []string{spec}}).Validate(); err == nil {
			t.Fatalf("discipline spec %q accepted", spec)
		}
	}
}

// TestDisciplineAxisDeterminism extends the campaign's core contract to
// the new dimension: a grid sweeping all four estimators renders
// byte-identically at -jobs 1 and -jobs 4, and every probed run
// actually recorded daemon samples.
func TestDisciplineAxisDeterminism(t *testing.T) {
	g := Grid{
		Name:        "disc-det",
		Topos:       []string{"pair"},
		Seeds:       []uint64{1, 2},
		Durations:   []Duration{msec(25)},
		Disciplines: []string{"ma", "pll", "theilsen", "lad"},
	}
	serial, err := Run(g, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(g, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderDeterministic(t, serial), renderDeterministic(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("discipline axis diverged between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", a, b)
	}
	for i := range serial.Results {
		sr, pr := serial.Results[i], parallel.Results[i]
		sr.Wall, pr.Wall = 0, 0
		if !reflect.DeepEqual(sr, pr) {
			t.Fatalf("run %d diverged:\n jobs=1: %+v\n jobs=4: %+v", i, sr, pr)
		}
	}
	for _, r := range serial.Results {
		if r.Err != "" {
			t.Fatalf("run %d (%s): %s", r.Point.Index, r.Point, r.Err)
		}
		// The probe is read at the sampling cadence (100 µs default):
		// a 25 ms run must have recorded plenty of samples.
		if r.DaemonSamples < 2 {
			t.Fatalf("run %d (%s): only %d daemon samples", r.Point.Index, r.Point, r.DaemonSamples)
		}
	}
}
