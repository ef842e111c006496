package telemetry_test

import (
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// exportRun simulates the paper tree for 20 ms with full telemetry and
// returns the Prometheus export and JSONL trace dump as strings.
func exportRun(t *testing.T, seed uint64) (metrics, trace string) {
	t.Helper()
	sch := sim.NewScheduler()
	reg := telemetry.New()
	tr := telemetry.NewTracer(4096)
	n, err := core.NewNetwork(sch, seed, topo.PaperTree(), core.DefaultConfig(), core.WithTelemetry(reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	sch.Run(20 * sim.Millisecond)
	if !n.AllSynced() {
		t.Fatal("network failed to synchronize")
	}
	var m, j strings.Builder
	if err := telemetry.WritePrometheus(&m, reg); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&j, tr); err != nil {
		t.Fatal(err)
	}
	return m.String(), j.String()
}

// TestSeededRunsExportIdenticalBytes guards the sim scheduler's
// reproducibility contract now that instrumentation sits in hot paths:
// the same seed must produce byte-identical metric exports and trace
// dumps, and a different seed must not.
func TestSeededRunsExportIdenticalBytes(t *testing.T) {
	m1, j1 := exportRun(t, 42)
	m2, j2 := exportRun(t, 42)
	if m1 != m2 {
		t.Fatalf("metric exports differ between identical seeded runs:\nrun1 %d bytes, run2 %d bytes", len(m1), len(m2))
	}
	if j1 != j2 {
		t.Fatalf("trace dumps differ between identical seeded runs:\nrun1 %d bytes, run2 %d bytes", len(j1), len(j2))
	}
	if !strings.Contains(m1, "dtp_beacons_sent_total") || len(j1) == 0 {
		t.Fatal("exports are empty; the determinism check proved nothing")
	}

	m3, j3 := exportRun(t, 43)
	if m3 == m1 && j3 == j1 {
		t.Fatal("different seeds produced identical exports; telemetry is not observing the run")
	}
}
