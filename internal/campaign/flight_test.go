package campaign

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/telemetry"
)

// flightGrid is the canned black-box campaign: the breaker scenario's
// total grey loss silences h0 toward h1, so h1's beacon-loss watchdog
// demotes its port and every run must trip the flight recorder. (The
// chaos engine's deadline extends each run past the fault regardless of
// the short measurement window.)
func flightGrid(dir string) Grid {
	return Grid{
		Name:      "flight",
		Topos:     []string{"pair"},
		Seeds:     []uint64{1, 2},
		Durations: []Duration{msec(5)},
		Chaos:     []string{"../../examples/chaos/breaker.json"},
		FlightDir: dir,
	}
}

// readTree maps every file under root (by /-separated relative path) to
// its bytes.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		tree[filepath.ToSlash(rel)] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestFlightCampaignProducesValidBundles(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign point is slow")
	}
	dir := t.TempDir()
	rep, err := Run(flightGrid(dir), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Err != "" {
			t.Fatalf("run %d errored: %s", i, r.Err)
		}
		if len(r.FlightBundles) == 0 {
			t.Fatalf("run %d: storm demoted ports but tripped no flight bundle", i)
		}
		for _, path := range r.FlightBundles {
			b, err := telemetry.LoadBundle(path)
			if err != nil {
				t.Fatalf("run %d bundle %s invalid: %v", i, path, err)
			}
			if b.Seed != int64(r.Seed) {
				t.Fatalf("bundle seed %d, run seed %d", b.Seed, r.Seed)
			}
			if b.Reason != "port_demoted" && b.Reason != "bound_violation" {
				t.Fatalf("unexpected trigger reason %q", b.Reason)
			}
			if b.Trace == nil || len(b.Trace.Events) == 0 {
				t.Fatalf("bundle %s carries no trace window", path)
			}
			if b.Timeline == nil || len(b.Timeline.Rows) == 0 {
				t.Fatalf("bundle %s carries no timeline window", path)
			}
			if _, ok := b.State["devices"]; !ok {
				t.Fatalf("bundle %s missing device state", path)
			}
			if _, ok := b.State["audit"]; !ok {
				t.Fatalf("bundle %s missing audit state", path)
			}
		}
		tl, err := os.ReadFile(r.TimelinePath)
		if err != nil {
			t.Fatalf("run %d timeline: %v", i, err)
		}
		if !strings.HasPrefix(string(tl), `{"schema":"dtp-timeline/1"`) {
			t.Fatalf("run %d timeline header wrong: %.80s", i, tl)
		}
	}
}

// TestFlightCampaignByteDeterminism extends the campaign's core
// contract to the observability artifacts: bundle and timeline files
// must be byte-identical across worker counts, and Results must agree
// modulo the directory prefix.
func TestFlightCampaignByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign point is slow")
	}
	d1, d2 := t.TempDir(), t.TempDir()
	rep1, err := Run(flightGrid(d1), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(flightGrid(d2), Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep1.Results {
		r1, r2 := &rep1.Results[i], &rep2.Results[i]
		if r1.Err != "" || r2.Err != "" {
			t.Fatalf("run %d errored: %q / %q", i, r1.Err, r2.Err)
		}
		if len(r1.FlightBundles) != len(r2.FlightBundles) {
			t.Fatalf("run %d: %d bundles with jobs=1, %d with jobs=4",
				i, len(r1.FlightBundles), len(r2.FlightBundles))
		}
		for j := range r1.FlightBundles {
			a, _ := filepath.Rel(d1, r1.FlightBundles[j])
			b, _ := filepath.Rel(d2, r2.FlightBundles[j])
			if a != b {
				t.Fatalf("run %d bundle %d: relative path %q vs %q", i, j, a, b)
			}
		}
	}
	t1, t2 := readTree(t, d1), readTree(t, d2)
	if len(t1) == 0 {
		t.Fatal("flight dir empty")
	}
	if len(t1) != len(t2) {
		t.Fatalf("file sets differ: %d vs %d files", len(t1), len(t2))
	}
	for rel, b1 := range t1 {
		b2, ok := t2[rel]
		if !ok {
			t.Fatalf("file %s missing from jobs=4 tree", rel)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("file %s differs between jobs=1 and jobs=4", rel)
		}
	}
}
