package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

// flightFixture builds a recorder over a small instrumented scene:
// a tracer with a few events, a registry with one counter, a timeline
// with one column, and a clock the test controls.
func flightFixture(t *testing.T, dir string, cfg FlightConfig) (*Recorder, *Tracer, *sim.Scheduler) {
	t.Helper()
	sch := sim.NewScheduler()
	reg := New()
	reg.Counter("dtp_test_total", "help").Add(42)
	tr := NewTracer(16)
	tl := NewTimeline(sim.Millisecond)
	tl.Gauge("bound", func() float64 { return float64(sch.Now() / sim.Millisecond) })
	tl.Start(sch)
	cfg.Dir = dir
	rec, err := NewRecorder(cfg, reg, tr, tl, sch.Now)
	if err != nil {
		t.Fatal(err)
	}
	rec.AddState("follower", func() any {
		return map[string]any{"host": "s4", "residual_ps": 123.5}
	})
	return rec, tr, sch
}

func TestFlightTriggerWritesValidBundle(t *testing.T) {
	dir := t.TempDir()
	rec, tr, sch := flightFixture(t, dir, FlightConfig{Seed: 7})
	tr.Record(0, KindLinkUp, "s1[0]", 0, 0, "")
	sch.RunFor(3 * sim.Millisecond)
	tr.Record(sch.Now(), KindBoundViolation, "s1~s4", 9, 4, "hops=3")
	rec.Trigger("bound_violation", "s1~s4")
	bundles := rec.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want 1", bundles)
	}
	if want := filepath.Join(dir, "flight-7-00-bound_violation.json"); bundles[0] != want {
		t.Fatalf("bundle path %s, want %s", bundles[0], want)
	}
	b, err := LoadBundle(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Seed != 7 || b.Reason != "bound_violation" || b.TPs != int64(3*sim.Millisecond) {
		t.Fatalf("bundle header = %+v", b)
	}
	if b.Trace == nil || len(b.Trace.Events) != 2 || b.Trace.Events[1].Kind != "bound_violation" {
		t.Fatalf("bundle trace = %+v", b.Trace)
	}
	if !strings.Contains(b.Metrics, "dtp_test_total 42") {
		t.Fatalf("bundle metrics missing counter:\n%s", b.Metrics)
	}
	if b.Timeline == nil || len(b.Timeline.Rows) != 3 || len(b.Timeline.Columns) != 1 {
		t.Fatalf("bundle timeline = %+v", b.Timeline)
	}
	if _, ok := b.State["follower"]; !ok {
		t.Fatalf("bundle state missing follower: %v", b.State)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
}

func TestFlightArmedObserver(t *testing.T) {
	dir := t.TempDir()
	rec, tr, sch := flightFixture(t, dir, FlightConfig{Seed: 1})
	rec.Arm(KindBoundViolation, KindPortDemoted)
	tr.Record(0, KindLinkUp, "s1[0]", 0, 0, "") // unarmed kind: no bundle
	if len(rec.Bundles()) != 0 {
		t.Fatal("unarmed kind triggered a bundle")
	}
	sch.RunFor(sim.Millisecond)
	tr.Record(sch.Now(), KindPortDemoted, "s2[1]", 0, 0, "beacon_loss")
	bundles := rec.Bundles()
	if len(bundles) != 1 || !strings.HasSuffix(bundles[0], "flight-1-00-port_demoted.json") {
		t.Fatalf("bundles = %v", bundles)
	}
}

func TestFlightCooldownAndBudget(t *testing.T) {
	dir := t.TempDir()
	rec, _, sch := flightFixture(t, dir, FlightConfig{Seed: 3})
	rec.Trigger("read_stale", "s4")
	rec.Trigger("read_stale", "s4") // same reason, same instant: cooldown
	if got := rec.Suppressed(); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
	for _, why := range []string{"chaos_verify_failed", "bound_violation", "port_demoted"} {
		rec.Trigger(why, "x") // different reasons: each dumps
	}
	if len(rec.Bundles()) != maxBundles {
		t.Fatalf("bundles = %v, want %d", rec.Bundles(), maxBundles)
	}
	sch.RunFor(2 * flightCooldown)
	rec.Trigger("read_stale", "s4") // cooldown elapsed but budget spent
	if len(rec.Bundles()) != maxBundles || rec.Suppressed() != 2 {
		t.Fatalf("budget not enforced: %v suppressed=%d", rec.Bundles(), rec.Suppressed())
	}
}

func TestFlightBundleDeterminism(t *testing.T) {
	read := func(dir string) []byte {
		rec, tr, sch := flightFixture(t, dir, FlightConfig{Seed: 11})
		tr.Record(0, KindLinkUp, "s1[0]", 0, 0, "")
		sch.RunFor(2 * sim.Millisecond)
		rec.Trigger("read_stale", "s4")
		data, err := os.ReadFile(rec.Bundles()[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := read(t.TempDir())
	b := read(t.TempDir())
	if string(a) != string(b) {
		t.Fatalf("identical runs produced different bundles:\n%s\n---\n%s", a, b)
	}
}

func TestFlightLoadBundleRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"wrong/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(bad); err == nil {
		t.Fatal("foreign schema should be rejected")
	}
	if err := os.WriteFile(bad, []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(bad); err == nil {
		t.Fatal("non-JSON should be rejected")
	}
}
