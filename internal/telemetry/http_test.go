package telemetry

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

func get(t *testing.T, r *Registry, tr *Tracer, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	Handler(r, tr).ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, rec.Header().Get("Content-Type"), string(body)
}

func tracerWith(events ...Event) *Tracer {
	tr := NewTracer(64)
	tr.SetKinds()
	for _, e := range events {
		tr.Record(e.At, e.Kind, e.Who, e.V1, e.V2, e.Detail)
	}
	return tr
}

func TestHandlerMetricsRoute(t *testing.T) {
	r := New()
	r.Counter("dtp_test_total", "help").Inc()
	code, ct, body := get(t, r, nil, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "dtp_test_total 1") {
		t.Fatalf("body missing sample:\n%s", body)
	}
}

func TestHandlerTraceRoute(t *testing.T) {
	tr := tracerWith(
		Event{At: 1, Kind: KindSynced, Who: "a[0]", V1: 44},
		Event{At: 2, Kind: KindCounterJump, Who: "b[0]", V1: 3},
		Event{At: 3, Kind: KindCounterJump, Who: "c[0]", V1: 2},
	)
	code, ct, body := get(t, nil, tr, "/trace")
	if code != 200 || ct != "application/x-ndjson" {
		t.Fatalf("status %d content type %q", code, ct)
	}
	if n := strings.Count(body, "\n"); n != 4 {
		t.Fatalf("%d lines, want header + 3 events:\n%s", n, body)
	}
	if !strings.HasPrefix(body, `{"schema":"dtp-trace/1","events":3,"total":3,"dropped":0}`) {
		t.Fatalf("missing trace header:\n%s", body)
	}
}

func TestHandlerTraceKindFilter(t *testing.T) {
	tr := tracerWith(
		Event{At: 1, Kind: KindSynced, Who: "a[0]", V1: 44},
		Event{At: 2, Kind: KindCounterJump, Who: "b[0]", V1: 3},
		Event{At: 3, Kind: KindBoundViolation, Who: "a~b", V1: 99, V2: 10},
	)
	code, _, body := get(t, nil, tr, "/trace?kind=counter_jump,bound_violation")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if strings.Contains(body, `"synced"`) {
		t.Fatalf("filter leaked synced events:\n%s", body)
	}
	if !strings.Contains(body, `"counter_jump"`) || !strings.Contains(body, `"bound_violation"`) {
		t.Fatalf("filtered kinds missing:\n%s", body)
	}

	code, _, body = get(t, nil, tr, "/trace?kind=not_a_kind")
	if code != 400 || !strings.Contains(body, "unknown trace kind") {
		t.Fatalf("bad kind: status %d body %q", code, body)
	}
}

func TestHandlerTraceLimit(t *testing.T) {
	tr := NewTracer(64)
	tr.SetKinds()
	for i := 0; i < 10; i++ {
		tr.Record(sim.Time(i), KindCounterJump, "p[0]", int64(i), 0, "")
	}
	code, _, body := get(t, nil, tr, "/trace?limit=2")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 events:\n%s", len(lines), body)
	}
	// Limit keeps the most recent events.
	if !strings.Contains(lines[2], `"v1":9`) {
		t.Fatalf("limit did not keep the tail:\n%s", body)
	}

	for _, bad := range []string{"/trace?limit=0", "/trace?limit=-3", "/trace?limit=x"} {
		if code, _, _ := get(t, nil, tr, bad); code != 400 {
			t.Fatalf("%s: status %d, want 400", bad, code)
		}
	}
}

func TestHandlerNilBackends(t *testing.T) {
	if code, _, body := get(t, nil, nil, "/metrics"); code != 200 || body != "" {
		t.Fatalf("nil registry: status %d body %q", code, body)
	}
	zeroHdr := `{"schema":"dtp-trace/1","events":0,"total":0,"dropped":0}` + "\n"
	if code, _, body := get(t, nil, nil, "/trace"); code != 200 || body != zeroHdr {
		t.Fatalf("nil tracer: status %d body %q", code, body)
	}
	if code, _, body := get(t, nil, nil, "/trace?kind=synced&limit=5"); code != 200 || body != zeroHdr {
		t.Fatalf("nil tracer with filters: status %d body %q", code, body)
	}
}

func TestHandlerRootAndNotFound(t *testing.T) {
	if code, _, body := get(t, nil, nil, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("root help: status %d body %q", code, body)
	}
	if code, _, _ := get(t, nil, nil, "/nope"); code != 404 {
		t.Fatalf("unknown path: status %d, want 404", code)
	}
}

func TestKindFromString(t *testing.T) {
	for k := Kind(0); int(k) < len(kindNames); k++ {
		got, ok := kindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("round trip failed for %v", k)
		}
	}
	if _, ok := kindFromString("nonsense"); ok {
		t.Fatal("accepted unknown kind")
	}
}
