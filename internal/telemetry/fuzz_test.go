package telemetry_test

import (
	"bytes"
	"os"
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// pairArtifacts runs an instrumented pair for 2 ms and returns its
// JSONL trace dump and one flight bundle (trace window, metrics,
// timeline and a state section): the seeds of both fuzz targets.
func pairArtifacts(f *testing.F) (trace, bundle []byte) {
	f.Helper()
	sch := sim.NewScheduler()
	reg := telemetry.New()
	tr := telemetry.NewTracer(64)
	n, err := core.NewNetwork(sch, 1, topo.Pair(), core.DefaultConfig(), core.WithTelemetry(reg, tr))
	if err != nil {
		f.Fatal(err)
	}
	tl := telemetry.NewTimeline(sch, 100*sim.Microsecond, []telemetry.TimelineColumn{
		{Name: "max_offset", Probe: func() float64 { return float64(n.MaxPairwiseOffset()) }},
	})
	rec, err := telemetry.NewRecorder(telemetry.FlightConfig{Dir: f.TempDir(), Seed: 1}, reg, tr, tl, sch.Now)
	if err != nil {
		f.Fatal(err)
	}
	rec.AddState("net", func() any { return map[string]any{"synced": n.AllSynced()} })
	n.Start()
	sch.Run(2 * sim.Millisecond)
	rec.Trigger("fuzz_seed", "pair")
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, tr); err != nil {
		f.Fatal(err)
	}
	paths := rec.Bundles()
	if len(paths) != 1 {
		f.Fatalf("bundles = %v, want 1", paths)
	}
	bundle, err = os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	return b.Bytes(), bundle
}

// FuzzReadJSONL: reading any input never panics, and an accepted trace
// written back through WriteTraceHeader and WriteEvents reads back as
// the same events and drop accounting.
func FuzzReadJSONL(f *testing.F) {
	trace, _ := pairArtifacts(f)
	f.Add(trace)
	f.Add([]byte(`{"seq":1,"t_ps":0,"kind":"synced","who":"h0[0]","v1":44,"v2":5}` + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		events, hdr, err := telemetry.ReadJSONLHeader(bytes.NewReader(b))
		if err != nil {
			return
		}
		total, dropped := uint64(len(events)), uint64(0)
		if hdr != nil {
			total, dropped = hdr.Total, hdr.Dropped
		}
		var out bytes.Buffer
		if err := telemetry.WriteTraceHeader(&out, len(events), total, dropped); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteEvents(&out, events); err != nil {
			t.Fatal(err)
		}
		back, hdr2, err := telemetry.ReadJSONLHeader(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("rewritten trace does not read: %v\n%s", err, out.Bytes())
		}
		if hdr2 == nil || hdr2.Events != len(events) || hdr2.Total != total || hdr2.Dropped != dropped {
			t.Fatalf("header %+v, want %d events, total %d, dropped %d", hdr2, len(events), total, dropped)
		}
		if len(back) != len(events) {
			t.Fatalf("%d events read back, want %d", len(back), len(events))
		}
		for i := range events {
			if back[i] != events[i] {
				t.Fatalf("event %d read back as %+v, want %+v", i, back[i], events[i])
			}
		}
	})
}

// FuzzLoadBundle: decoding any input never panics, and an accepted
// bundle re-encodes to bytes that decode and re-encode unchanged.
func FuzzLoadBundle(f *testing.F) {
	_, bundle := pairArtifacts(f)
	f.Add(bundle)
	f.Add([]byte(`{"schema":"dtp-flight/1","seed":1,"seq":0,"reason":"r","t_ps":0,"timeline":{"interval_ps":1,"columns":["a"],"rows":[{"t_ps":0,"v":[null]}]}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		bd, err := telemetry.DecodeBundle(b)
		if err != nil {
			return
		}
		out, err := telemetry.EncodeBundle(bd)
		if err != nil {
			t.Fatalf("accepted bundle does not encode: %v", err)
		}
		back, err := telemetry.DecodeBundle(out)
		if err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v\n%s", err, out)
		}
		again, err := telemetry.EncodeBundle(back)
		if err != nil {
			t.Fatalf("decoded bundle does not encode: %v", err)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("round trip changed the bundle:\n%s\n%s", out, again)
		}
	})
}
