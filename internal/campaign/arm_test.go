package campaign

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dtplab/dtp"
	"github.com/dtplab/dtp/internal/telemetry"
)

// fullSpec asks for everything Arm can attach, on the paper tree: the
// auditor, a (mild) fault, the serving plane, a probe daemon, and the
// black box.
func fullSpec(t *testing.T) Spec {
	dir := t.TempDir()
	nudge := filepath.Join(dir, "nudge.json")
	if err := writeFile(nudge, `{"name": "nudge", "faults": [
		{"kind": "freq_step", "device": "s5", "ppm_step": 5, "at": "500us", "duration": "100us"}]}`); err != nil {
		t.Fatal(err)
	}
	p := Grid{Topos: []string{"tree"}, Chaos: []string{nudge}, Disciplines: []string{"pll"},
		Wander: true, TimeService: true}.Expand()[0]
	return Spec{
		Point:    p,
		Registry: dtp.NewMetricsRegistry(), Tracer: dtp.NewTracer(0),
		Audit: true, FlightDir: filepath.Join(dir, "flight"),
	}
}

// TestArmAttachOrder fails the day someone reorders Arm: the timeline
// and the flight recorder only see the auditor, daemons and plane that
// exist when they are built.
func TestArmAttachOrder(t *testing.T) {
	rig, err := Arm(fullSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Sys.Close()
	if rig.Auditor == nil || rig.Chaos == nil || rig.Plane == nil || rig.Probe == nil ||
		rig.Timeline == nil || rig.Recorder == nil {
		t.Fatalf("Arm left a requested handle nil: %+v", rig)
	}
	rig.Sys.Run(time.Millisecond)
	rig.Recorder.Trigger("attach_order", "")
	if err := rig.Recorder.Err(); err != nil {
		t.Fatal(err)
	}
	bundles := rig.Recorder.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("want 1 bundle, got %v", bundles)
	}
	b, err := telemetry.LoadBundle(bundles[0])
	if err != nil {
		t.Fatal(err)
	}

	cols := map[string]bool{}
	for _, c := range b.Timeline.Columns {
		cols[c] = true
	}
	g := rig.Sys.Graph()
	want := []string{"audit_worst_offset_ticks", "daemon_offset_ticks_" + g.Nodes[g.HostIDs()[0]].Name}
	for _, h := range rig.Plane.Hosts() {
		want = append(want, "eps_ps_"+h)
	}
	for _, c := range want {
		if !cols[c] {
			t.Errorf("timeline lacks column %q (have %v)", c, b.Timeline.Columns)
		}
	}
	for _, s := range []string{"audit", "daemons", "timesvc"} {
		if _, ok := b.State[s]; !ok {
			t.Errorf("bundle state lacks %q section", s)
		}
	}
	if err := rig.VerifyChaos(); err != nil {
		t.Errorf("a 5 ppm nudge must verify: %v", err)
	}
}

func TestArmRejectsBadSpec(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"unknown topology", func(s *Spec) { s.Topo = "moebius:4" }, "unknown topology"},
		{"unknown load", func(s *Spec) { s.Load = "bogus" }, "unknown load"},
		{"missing scenario", func(s *Spec) { s.Chaos = "/nonexistent.json" }, "no such file"},
		{"scenario names a missing device", func(s *Spec) { s.Topo = "pair" }, "no node named"},
		{"no honest host left", func(s *Spec) { s.Liars = 100 }, "at least one honest host"},
		{"unknown probe", func(s *Spec) { s.Discipline = "kalman" }, "kalman"},
		{"flight recorder without a tracer", func(s *Spec) { s.Tracer = nil }, "tracer"},
	} {
		s := fullSpec(t)
		tc.edit(&s)
		rig, err := Arm(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if errors.Is(err, ErrNotSynced) {
			t.Errorf("%s: a bad Spec is not a failed run", tc.name)
		}
		if rig != nil {
			t.Errorf("%s: Arm returned a rig beside its error", tc.name)
		}
	}
}

func TestArmSyncTimeoutIsTheRunsFailure(t *testing.T) {
	s := fullSpec(t)
	s.SyncTimeout = Duration(time.Microsecond)
	if _, err := Arm(s); !errors.Is(err, ErrNotSynced) {
		t.Fatalf("err = %v, want ErrNotSynced", err)
	}
}
