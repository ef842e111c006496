package telemetry_test

import (
	"testing"

	"github.com/dtplab/dtp/internal/core"
	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
	"github.com/dtplab/dtp/internal/topo"
)

// telemetryMode selects how much instrumentation benchSync attaches.
type telemetryMode int

const (
	telemetryOff       telemetryMode = iota // nil handles everywhere
	telemetryOn                             // Registry + default Tracer mask
	telemetryFullTrace                      // plus per-beacon firehose kinds
)

// benchSync runs the paper-tree synchronization (the same workload as
// the repo-root sync benchmarks) once per iteration. Compare:
//
//	go test -bench 'BenchmarkSync' -benchtime 10x ./internal/telemetry
//
// The acceptance target is <5% slowdown for On vs Off; Off vs an
// uninstrumented build is ~0% because nil handles reduce every metric
// update to a nil check. FullTrace additionally records every BEACON
// tx/rx into the ring and is expected to cost well over the budget —
// that's why the firehose kinds are masked by default.
func benchSync(b *testing.B, mode telemetryMode) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sch := sim.NewScheduler()
		var opts []core.Option
		if mode != telemetryOff {
			tr := telemetry.NewTracer(8192)
			if mode == telemetryFullTrace {
				tr.SetKinds()
			}
			opts = append(opts, core.WithTelemetry(telemetry.New(), tr))
		}
		n, err := core.NewNetwork(sch, uint64(i)+1, topo.PaperTree(), core.DefaultConfig(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		n.Start()
		sch.Run(20 * sim.Millisecond)
		if !n.AllSynced() {
			b.Fatal("network failed to synchronize")
		}
	}
}

func BenchmarkSyncTelemetryOff(b *testing.B)       { benchSync(b, telemetryOff) }
func BenchmarkSyncTelemetryOn(b *testing.B)        { benchSync(b, telemetryOn) }
func BenchmarkSyncTelemetryFullTrace(b *testing.B) { benchSync(b, telemetryFullTrace) }

// Micro-benchmarks for the individual primitives, nil and live.

func BenchmarkCounterIncNil(b *testing.B) {
	var c *telemetry.Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := telemetry.New().Counter("bench_total", "")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := telemetry.New().Histogram("bench_units", "", telemetry.LinearBuckets(-8, 1, 17))
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%16 - 8))
	}
}

func BenchmarkTracerRecordNil(b *testing.B) {
	var tr *telemetry.Tracer
	for i := 0; i < b.N; i++ {
		tr.Record(sim.Time(i), telemetry.KindBeaconRx, "p", 1, 2, "")
	}
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := telemetry.NewTracer(8192)
	tr.SetKinds() // beacon_rx is firehose-masked by default
	for i := 0; i < b.N; i++ {
		tr.Record(sim.Time(i), telemetry.KindBeaconRx, "p", 1, 2, "")
	}
}

func BenchmarkTracerRecordMaskedOff(b *testing.B) {
	tr := telemetry.NewTracer(8192)
	tr.SetKinds(telemetry.KindLinkDown) // beacon_rx masked out
	for i := 0; i < b.N; i++ {
		tr.Record(sim.Time(i), telemetry.KindBeaconRx, "p", 1, 2, "")
	}
}
