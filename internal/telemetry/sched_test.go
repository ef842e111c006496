package telemetry

import (
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

type nopActor struct{}

func (nopActor) OnEvent(uint8, uint64, uint64) {}

func TestInstrumentScheduler(t *testing.T) {
	sch := sim.NewScheduler()
	reg := New()
	InstrumentScheduler(reg, sch, false)

	// A self-rescheduling workload plus a burst of queued events, so both
	// processed and queue-depth metrics have something to show.
	var ticks int
	var work func()
	work = func() {
		ticks++
		if ticks < 100 {
			sch.After(100*sim.Microsecond, work)
		}
	}
	sch.After(0, work)
	for i := 0; i < 32; i++ {
		sch.At(5*sim.Millisecond+sim.Time(i), func() {})
	}
	// Actor events too, in and out of time order, so the queue-geometry
	// gauges have lane inserts and overflows to report.
	for i := 0; i < 64; i++ {
		sch.AtActor(sim.Millisecond+sim.Time(i), nopActor{}, 1, 0, 0)
		sch.AtActor(2*sim.Millisecond-sim.Time(i), nopActor{}, 2, 0, 0)
	}
	sch.Run(20 * sim.Millisecond)

	if g := reg.Gauge("dtp_sched_events_processed_total", ""); uint64(g.Value()) != sch.Processed() {
		t.Fatalf("processed gauge %v != scheduler %d", g.Value(), sch.Processed())
	}
	if g := reg.Gauge("dtp_sched_events_pending_high_water", ""); g.Value() < 32 {
		t.Fatalf("high water %v, want >= 32 (burst was queued)", g.Value())
	}
	if h := reg.Histogram("dtp_sched_queue_depth", "", nil); h.Count() == 0 {
		t.Fatal("queue depth histogram never sampled")
	}

	qs := sch.QueueStats()
	if qs.LaneInserts < 64 || qs.LaneOverflows == 0 {
		t.Fatalf("workload should fill a lane and overflow another: %+v", qs)
	}
	if g := reg.Gauge("dtp_sched_lane_inserts_total", ""); uint64(g.Value()) != qs.LaneInserts {
		t.Fatalf("lane inserts gauge %v != scheduler %d", g.Value(), qs.LaneInserts)
	}
	if g := reg.Gauge("dtp_sched_lane_overflow_total", ""); uint64(g.Value()) != qs.LaneOverflows {
		t.Fatalf("lane overflow gauge %v != scheduler %d", g.Value(), qs.LaneOverflows)
	}
	// Sampled inside the sampler's own event, so its re-arm is not yet
	// queued: the calendar's share can only be at or below all pending.
	if c, p := reg.Gauge("dtp_sched_calendar_pending", ""), reg.Gauge("dtp_sched_events_pending", ""); c.Value() > p.Value() {
		t.Fatalf("calendar pending gauge %v above events pending %v", c.Value(), p.Value())
	}

	var b strings.Builder
	if err := WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dtp_sched_events_processed_total",
		"dtp_sched_events_pending",
		"dtp_sched_events_pending_high_water",
		"dtp_sched_queue_depth",
		"dtp_sched_lane_inserts_total",
		"dtp_sched_lane_overflow_total",
		"dtp_sched_calendar_pending",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	// Wall-clock rate is opt-in: it must NOT leak into deterministic dumps.
	if strings.Contains(b.String(), "dtp_sched_events_per_wall_second") {
		t.Fatal("wall rate exported without being asked for")
	}
}

func TestInstrumentSchedulerWallRate(t *testing.T) {
	sch := sim.NewScheduler()
	reg := New()
	InstrumentScheduler(reg, sch, true)
	sch.Run(5 * sim.Millisecond)
	var b strings.Builder
	if err := WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dtp_sched_events_per_wall_second") {
		t.Fatal("wall rate requested but gauge missing")
	}
}

func TestInstrumentSchedulerNilSafe(t *testing.T) {
	InstrumentScheduler(nil, sim.NewScheduler(), false)
	InstrumentScheduler(New(), nil, false)
}

func TestGaugeSetMin(t *testing.T) {
	reg := New()
	g := reg.Gauge("dtp_test_min", "help")
	g.Set(10)
	g.SetMin(3)
	if g.Value() != 3 {
		t.Fatalf("SetMin(3) left %v", g.Value())
	}
	g.SetMin(7) // larger: no-op
	if g.Value() != 3 {
		t.Fatalf("SetMin(7) overwrote smaller value: %v", g.Value())
	}
	var nilGauge *Gauge
	nilGauge.SetMin(1) // must not panic
}
