package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	tr.SetKinds() // beacon kinds are firehose-masked by default
	for i := 0; i < 10; i++ {
		tr.Record(sim.Time(i), KindBeaconTx, "p", int64(i), 0, "")
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.V1 != int64(6+i) {
			t.Fatalf("event %d has V1=%d, want %d (oldest-first)", i, e.V1, 6+i)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
}

func TestTracerDefaultMasksFirehose(t *testing.T) {
	tr := NewTracer(16)
	for _, k := range []Kind{KindBeaconTx, KindBeaconRx, KindBeaconIgnored, KindCounterJump} {
		if tr.Enabled(k) {
			t.Errorf("firehose kind %s enabled by default", k)
		}
	}
	for _, k := range []Kind{KindLinkUp, KindStateChange, KindSynced,
		KindCounterStall, KindDaemonCal, KindBoundViolation, KindPortDemoted} {
		if !tr.Enabled(k) {
			t.Errorf("lifecycle kind %s masked by default", k)
		}
	}
}

func TestTracerKindMask(t *testing.T) {
	tr := NewTracer(16)
	tr.SetKinds(KindLinkUp, KindLinkDown)
	if tr.Enabled(KindBeaconTx) {
		t.Fatal("beacon_tx should be masked")
	}
	tr.Record(0, KindBeaconTx, "p", 0, 0, "")
	tr.Record(0, KindLinkUp, "p", 0, 0, "")
	if tr.Total() != 1 || tr.Events()[0].Kind != KindLinkUp {
		t.Fatal("masked kinds must not be recorded")
	}
	tr.SetKinds() // re-enable all
	if !tr.Enabled(KindBeaconTx) {
		t.Fatal("SetKinds() must re-enable every kind")
	}
}

func TestKindNamesAreStable(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
}

func TestJSONLSchema(t *testing.T) {
	tr := NewTracer(8)
	tr.SetKinds() // include firehose kinds
	tr.Record(1280640, KindBeaconRx, `s1[2]`, -1, 0, "")
	tr.Record(1280650, KindStateChange, "s0[0]", 1, 2, "synced")
	var b strings.Builder
	if err := WriteJSONL(&b, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 events", len(lines))
	}
	wantHdr := `{"schema":"dtp-trace/1","events":2,"total":2,"dropped":0}`
	if lines[0] != wantHdr {
		t.Fatalf("header:\n got %s\nwant %s", lines[0], wantHdr)
	}
	want1 := `{"seq":1,"t_ps":1280640,"kind":"beacon_rx","who":"s1[2]","v1":-1,"v2":0}`
	if lines[1] != want1 {
		t.Fatalf("line 1:\n got %s\nwant %s", lines[1], want1)
	}
	if !strings.Contains(lines[2], `"detail":"synced"`) {
		t.Fatalf("line 2 missing detail: %s", lines[2])
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New()
	r.Counter("dtp_beacons_sent_total", "h").Add(5)
	tr := NewTracer(8)
	tr.Record(42, KindLinkUp, "s0[0]", 0, 0, "")
	h := Handler(r, tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "dtp_beacons_sent_total 5") {
		t.Fatalf("/metrics: code %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"kind":"link_up"`) {
		t.Fatalf("/trace: code %d body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path: code %d, want 404", rec.Code)
	}
}
