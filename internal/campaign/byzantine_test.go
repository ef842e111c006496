package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// byzantineScenario is the tolerance-study fault: host s8 ratchets a
// 5000-unit lie onto every counter it transmits, every ~2 µs, for 1 ms.
// Timings are compressed from examples/chaos/liar.json so the study
// stays cheap enough to run under -race in CI.
const byzantineScenario = `{
  "name": "liar-ci",
  "description": "one Byzantine host ratcheting its transmitted counter",
  "settle_grace": "100us",
  "reconverge_deadline": "3ms",
  "faults": [
    {"kind": "liar", "device": "s8", "at": "400us", "duration": "1ms",
     "jump_units": 5000, "cadence": "2us"}
  ]
}`

func byzantineGrid(scenario string) Grid {
	return Grid{
		Name:      "byzantine",
		Topos:     []string{"tree"},
		Seeds:     []uint64{1, 2, 3},
		Durations: []Duration{msec(2)},
		Chaos:     []string{"", scenario},
		Hardened:  []bool{false, true},
		// The liar's JOIN cascades are microsecond transients; the
		// default 100 µs auditor cadence could sample between them.
		AuditEvery: Duration(20 * time.Microsecond),
	}
}

// TestByzantineTolerance is the PR's acceptance demonstration, run as a
// campaign so the comparison is apples-to-apples across seeds:
//
//   - hardening off + one liar: the fabric adopts the inflated counter
//     and the auditor reports unexcused bound violations (adversarial
//     faults declare no excuse windows);
//   - hardening on + the same liar: every lying JOIN is rejected, the
//     attacking port is quarantined, and the run ends with zero
//     unexcused violations and a reconverged fabric;
//   - hardening on, no fault: the defense is free — the clean-run
//     offset envelope must not regress more than 10% versus plain mode.
func TestByzantineTolerance(t *testing.T) {
	scenario := filepath.Join(t.TempDir(), "liar.json")
	if err := writeFile(scenario, byzantineScenario); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(byzantineGrid(scenario), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Index clean-run offsets per seed for the precision-cost check.
	cleanOff := map[uint64]map[bool]int64{}
	for _, r := range rep.Results {
		if r.Err != "" {
			t.Fatalf("run %d (%s) errored: %s", r.Index, r.Point, r.Err)
		}
		switch {
		case r.Chaos == "":
			if r.AuditViolations != 0 || !r.ChaosOK || !r.WithinBound {
				t.Errorf("clean run %s: violations=%d withinBound=%v — hardening must not disturb a fault-free fabric",
					r.Point, r.AuditViolations, r.WithinBound)
			}
			if cleanOff[r.Seed] == nil {
				cleanOff[r.Seed] = map[bool]int64{}
			}
			cleanOff[r.Seed][r.Hardened] = r.MaxOffsetTicks
		case !r.Hardened:
			// The vulnerability: one liar poisons the whole fabric.
			if r.AuditViolations == 0 {
				t.Errorf("liar run %s: zero unexcused violations — plain DTP should have adopted the lie",
					r.Point)
			}
			if r.ChaosOK {
				t.Errorf("liar run %s: chaos verification passed unhardened", r.Point)
			}
		default:
			// The defense: rejections, quarantine, zero violations,
			// full reconvergence by the scenario deadline.
			if r.AuditViolations != 0 {
				t.Errorf("hardened liar run %s: %d unexcused violations", r.Point, r.AuditViolations)
			}
			if !r.ChaosOK {
				t.Errorf("hardened liar run %s: chaos verification failed: %s", r.Point, r.ChaosErr)
			}
			if r.CounterRejections < uint64(4) {
				t.Errorf("hardened liar run %s: only %d rejections — admission never engaged",
					r.Point, r.CounterRejections)
			}
			if r.PortQuarantines < 1 {
				t.Errorf("hardened liar run %s: no quarantine despite a persistent liar", r.Point)
			}
		}
	}

	// Clean-run precision cost: hardened admission only observes honest
	// traffic, so the envelope must stay within 10% (plus one unit of
	// integer headroom) of plain mode, per seed.
	for seed, offs := range cleanOff {
		plain, hardened := offs[false], offs[true]
		if float64(hardened) > float64(plain)*1.1+1 {
			t.Errorf("seed %d: clean-run max offset %d hardened vs %d plain — defense costs >10%% precision",
				seed, hardened, plain)
		}
		t.Logf("seed %d clean-run max offset: plain=%d hardened=%d units", seed, plain, hardened)
	}
	t.Logf("break-even: 1 Byzantine device defeats plain DTP on every seed; hardened mode tolerates it\n%s",
		summaryLine(rep))
}

// TestHardenedLiarRejoinsListening is the benchmark's hardened liar grid
// point (the shipped scenario, 160 ms, lad probe, time service) on seed
// 64, where the liar s8 holds the clock the fabric must follow once the
// fault clears: s2 marks s8 faulty moments before it quarantines it, and
// a quarantine that kept that verdict left s2 deaf to s8 after the
// rejoin — SYNCED, and drifting out of bound.
func TestHardenedLiarRejoinsListening(t *testing.T) {
	rep, err := Run(Grid{
		Name: "liar", Topos: []string{"tree"}, Chaos: []string{"../../examples/chaos/liar.json"},
		Durations: []Duration{msec(160)}, Hardened: []bool{true}, Disciplines: []string{"lad"},
		TimeService: true, Seeds: []uint64{64}, Wander: true,
	}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Results[0]; !r.OK() {
		t.Fatalf("hardened liar point, seed 64: %d unexcused violations, chaos ok %v: %s%s",
			r.AuditViolations, r.ChaosOK, r.Err, r.ChaosErr)
	}
}

func summaryLine(rep *Report) string {
	var rej, quar uint64
	for _, r := range rep.Results {
		rej += r.CounterRejections
		quar += r.PortQuarantines
	}
	return fmt.Sprintf("campaign: %d runs, %d counter rejections, %d quarantines",
		len(rep.Results), rej, quar)
}

// multiLiarGrid sweeps the Liars axis: 0/1/2 simultaneous Byzantine
// hosts (synthesized by withLiars via deterministic stride over the
// paper tree's 8 leaf hosts) with the defenses off and on. Liar counts
// past 2 sit on a real tolerance boundary — stride placement can put
// two liars under one edge switch, and once liars reach half that
// switch's links its quorum neighborhood is poisoned and transient
// violations slip through on some seeds — so the asserted curve stops
// where tolerance is seed-independent.
func multiLiarGrid() Grid {
	return Grid{
		Name:       "multi-liar",
		Topos:      []string{"tree"},
		Seeds:      []uint64{1, 2},
		Durations:  []Duration{msec(2)},
		Hardened:   []bool{false, true},
		Liars:      []int{0, 1, 2},
		AuditEvery: Duration(20 * time.Microsecond),
	}
}

// TestMultiLiarToleranceCurve traces how many simultaneous Byzantine
// devices the fabric withstands per mode: plain DTP is defeated by any
// number of liars (it has no admission, so not a single lie is
// rejected), while hardened mode rejects every lying JOIN, quarantines
// each attacking host's port, and finishes with zero unexcused
// violations and a reconverged fabric at every asserted liar count.
func TestMultiLiarToleranceCurve(t *testing.T) {
	rep, err := Run(multiLiarGrid(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		label := r.Point
		if r.Err != "" {
			t.Fatalf("run %s errored: %s", label, r.Err)
		}
		switch {
		case r.Liars == 0:
			if !r.ChaosOK || r.AuditViolations != 0 {
				t.Errorf("clean run %s: chaosOK=%v violations=%d", label, r.ChaosOK, r.AuditViolations)
			}
		case !r.Hardened:
			if r.ChaosOK || r.AuditViolations == 0 {
				t.Errorf("plain run %s survived %d liars (violations=%d) — plain DTP has no defense",
					label, r.Liars, r.AuditViolations)
			}
			if r.CounterRejections != 0 {
				t.Errorf("plain run %s rejected %d advances — admission should not exist unhardened",
					label, r.CounterRejections)
			}
		default:
			if !r.ChaosOK {
				t.Errorf("hardened run %s failed with %d liars: %s", label, r.Liars, r.ChaosErr)
			}
			if r.AuditViolations != 0 {
				t.Errorf("hardened run %s: %d unexcused violations with %d liars", label, r.AuditViolations, r.Liars)
			}
			// Each liar pushes lies through its one uplink until the
			// port is quarantined: at least the admission window's worth
			// of rejections and one quarantine per liar.
			if r.CounterRejections < uint64(4*r.Liars) {
				t.Errorf("hardened run %s: only %d rejections for %d liars", label, r.CounterRejections, r.Liars)
			}
			if r.PortQuarantines < uint64(r.Liars) {
				t.Errorf("hardened run %s: %d quarantines for %d liars", label, r.PortQuarantines, r.Liars)
			}
		}
	}
	t.Logf("tolerance curve (tree, 8 hosts): plain fails at 1 liar; hardened holds through the asserted sweep\n%s",
		summaryLine(rep))
}

// TestMultiLiarByteDeterminism pins the synthesized-liar axis to the
// campaign contract: stride placement and fault timing are pure
// functions of the grid point, so the full tolerance grid renders
// byte-identically with one worker and with four.
func TestMultiLiarByteDeterminism(t *testing.T) {
	g := multiLiarGrid()
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
		t.Fatalf("multi-liar campaign diverged between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", a, b)
	}
}

// TestByzantineDeterminismAcrossWorkerCounts pins the tolerance study
// to the campaign's core contract: the adversarial grid renders
// byte-identically with one worker and with four.
func TestByzantineDeterminismAcrossWorkerCounts(t *testing.T) {
	scenario := filepath.Join(t.TempDir(), "liar.json")
	if err := writeFile(scenario, byzantineScenario); err != nil {
		t.Fatal(err)
	}
	g := byzantineGrid(scenario)
	g.Seeds = []uint64{1, 2} // half the grid: this test re-runs it twice
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
		t.Fatalf("byzantine campaign diverged between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", a, b)
	}
}
