package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

func TestTimelineSampling(t *testing.T) {
	sch := sim.NewScheduler()
	var g float64
	var cum float64
	tl := NewTimeline(sch, sim.Millisecond, []TimelineColumn{
		{Name: "g", Probe: func() float64 { return g }},
		{Name: "r", Probe: func() float64 { return cum }, Rate: true},
	})
	for i := 0; i < 5; i++ {
		g = float64(i + 1)
		cum += 1000 // +1000/ms = 1e6/s
		sch.RunFor(sim.Millisecond)
	}
	rows := tl.Rows()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if got := tl.Columns(); len(got) != 2 || got[0] != "g" || got[1] != "r" {
		t.Fatalf("columns = %v", got)
	}
	for i, r := range rows {
		if want := sim.Millisecond * sim.Time(i+1); r.At != want {
			t.Errorf("row %d at %v, want %v", i, r.At, want)
		}
		if r.V[0] != float64(i+1) {
			t.Errorf("row %d gauge = %g, want %d", i, r.V[0], i+1)
		}
		if math.Abs(r.V[1]-1e6) > 1 {
			t.Errorf("row %d rate = %g, want 1e6", i, r.V[1])
		}
	}
}

func TestTimelineRingEviction(t *testing.T) {
	sch := sim.NewScheduler()
	n := 0.0
	tl := NewTimeline(sch, sim.Millisecond, []TimelineColumn{{Name: "n", Probe: func() float64 { n++; return n }}})
	const total = timelineCapacity + 6
	sch.RunFor(total * sim.Millisecond)
	rows := tl.Rows()
	if len(rows) != timelineCapacity {
		t.Fatalf("rows = %d, want %d (ring cap)", len(rows), timelineCapacity)
	}
	if tl.Total() != total {
		t.Fatalf("total = %d, want %d", tl.Total(), total)
	}
	// The retained window is the most recent timelineCapacity samples, in
	// order.
	if rows[0].V[0] != 7 || rows[len(rows)-1].V[0] != total {
		t.Fatalf("window = [%g..%g], want [7..%d]", rows[0].V[0], rows[len(rows)-1].V[0], total)
	}
}

func TestTimelineJSONLDeterminism(t *testing.T) {
	run := func() string {
		sch := sim.NewScheduler()
		i := 0.0
		tl := NewTimeline(sch, 100*sim.Microsecond, []TimelineColumn{
			{Name: "v", Probe: func() float64 { i++; return i * 1.5 }},
			{Name: "nan", Probe: func() float64 { return math.NaN() }},
		})
		sch.RunFor(sim.Millisecond)
		var b strings.Builder
		if err := tl.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs serialized differently:\n%s\n---\n%s", a, b)
	}
	if !strings.HasPrefix(a, `{"schema":"dtp-timeline/1","interval_ps":100000000,"columns":["v","nan"],"rows":10,"total":10,"dropped":0}`) {
		t.Fatalf("unexpected header: %s", a[:strings.IndexByte(a, '\n')])
	}
	if !strings.Contains(a, `,null]`) {
		t.Fatalf("NaN column should render null:\n%s", a)
	}
}

// TestTimelineJSONLUnderSampling: dtpd serves /timeline while the
// simulation samples, so a dump races the sampler. Every header must
// describe exactly the rows that follow it: sample i lands at i µs, so
// the last row of a dump is sample number total. One dump tears only
// now and then, hence the loop.
func TestTimelineJSONLUnderSampling(t *testing.T) {
	tl := NewTimeline(sim.NewScheduler(), sim.Microsecond, []TimelineColumn{{Name: "v", Probe: func() float64 { return 1 }}})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tl.sample(sim.Time(i) * sim.Microsecond)
		}
	}()
	defer func() { close(stop); <-done }()
	for w := 0; w < 200; w++ {
		var b strings.Builder
		if err := tl.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		var h TimelineHeader
		var last struct {
			T int64 `json:"t_ps"`
		}
		if err := json.Unmarshal([]byte(lines[0]), &h); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if uint64(h.Rows) > h.Total || h.Dropped != h.Total-uint64(h.Rows) || h.Rows != len(lines)-1 ||
			(h.Rows > 0 && last.T != int64(h.Total)*int64(sim.Microsecond)) {
			t.Fatalf("dump %d: header %s over %d rows, the last at %d ps", w, lines[0], len(lines)-1, last.T)
		}
	}
}

func TestTimelineNilSafety(t *testing.T) {
	var tl *Timeline
	if tl.Rows() != nil || tl.Columns() != nil || tl.Total() != 0 {
		t.Fatal("nil timeline should be empty")
	}
	if err := tl.WriteJSONL(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceJSONLHeaderRoundTrip(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Record(sim.Time(i), KindLinkUp, "s1[0]", int64(i), 0, "")
	}
	var b strings.Builder
	if err := WriteJSONL(&b, tr); err != nil {
		t.Fatal(err)
	}
	first := b.String()[:strings.IndexByte(b.String(), '\n')]
	if want := `{"schema":"dtp-trace/1","events":4,"total":7,"dropped":3}`; first != want {
		t.Fatalf("header = %s, want %s", first, want)
	}
	events, hdr, err := ReadJSONLHeader(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr == nil || hdr.Dropped != 3 || hdr.Total != 7 || hdr.Events != 4 {
		t.Fatalf("header round-trip = %+v", hdr)
	}
	if len(events) != 4 || events[0].Seq != 4 {
		t.Fatalf("events = %d (first seq %d), want 4 starting at seq 4", len(events), events[0].Seq)
	}
	// Headerless dumps (WriteEvents output) still parse.
	var raw strings.Builder
	if err := WriteEvents(&raw, tr.Events()); err != nil {
		t.Fatal(err)
	}
	events, hdr, err = ReadJSONLHeader(strings.NewReader(raw.String()))
	if err != nil || hdr != nil || len(events) != 4 {
		t.Fatalf("headerless parse: events=%d hdr=%v err=%v", len(events), hdr, err)
	}
}

func TestTracerDroppedAndObserver(t *testing.T) {
	tr := NewTracer(2)
	var seen []Event
	tr.OnRecord(func(e Event) {
		// Reading the tracer back from the observer must not deadlock.
		_ = tr.Dropped()
		seen = append(seen, e)
	})
	for i := 0; i < 5; i++ {
		tr.Record(sim.Time(i), KindLinkDown, "s1[0]", 0, 0, "")
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	if len(seen) != 5 {
		t.Fatalf("observer saw %d events, want 5", len(seen))
	}
	tr.OnRecord(nil)
	tr.Record(5, KindLinkDown, "s1[0]", 0, 0, "")
	if len(seen) != 5 {
		t.Fatal("uninstalled observer still firing")
	}
	// Masked kinds never reach the observer.
	tr.OnRecord(func(e Event) { seen = append(seen, e) })
	tr.SetKinds(KindLinkUp)
	tr.Record(6, KindLinkDown, "s1[0]", 0, 0, "")
	if len(seen) != 5 {
		t.Fatal("masked kind reached observer")
	}
}
