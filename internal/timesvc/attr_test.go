package timesvc

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
	"github.com/dtplab/dtp/internal/telemetry"
)

func TestAttributionSumsToPublishedBound(t *testing.T) {
	p := newServedPair(t, 31, 0)
	p.sch.RunFor(simScale(1 * sim.Second))

	a := p.svc.Attribution()
	if a.Publishes == 0 || a.Publishes != p.svc.Publishes() {
		t.Fatalf("attribution publishes = %d, service = %d", a.Publishes, p.svc.Publishes())
	}
	snap, ok := p.svc.Store().Read()
	if !ok {
		t.Fatal("no snapshot")
	}
	// The four components must reconstruct the published half-width
	// exactly (same floats summed in the same order).
	if math.Abs(a.TotalLastPs-snap.BoundPs) > 1e-6 {
		t.Fatalf("component sum %.3f ps != published bound %.3f ps", a.TotalLastPs, snap.BoundPs)
	}
	var share float64
	for _, c := range a.Components {
		if c.LastPs < 0 || c.MeanPs < 0 {
			t.Fatalf("component %s negative: %+v", c.Name, c)
		}
		share += c.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("shares sum to %.9f, want 1", share)
	}
	if a.Dominant == "" {
		t.Fatal("no dominant component identified")
	}
	// On a healthy 1-hop pair the residual floor or the audit bound
	// dominates — either way the split must not claim the daemon's PCIe
	// noise is the whole budget.
	if a.Dominant == "daemon" && a.Components[attrDaemon].Share > 0.9 {
		t.Fatalf("daemon component implausibly dominant: %+v", a)
	}
}

func TestAttributionMetricsExposed(t *testing.T) {
	p := newServedPair(t, 33, 0)
	p.sch.RunFor(simScale(1 * sim.Second))

	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, p.reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, comp := range AttrComponentNames {
		if !strings.Contains(out, `dtp_timesvc_eps_last_ps{component="`+comp+`",host="h1"}`) {
			t.Errorf("exposition missing eps_last gauge for %s", comp)
		}
		if !strings.Contains(out, `dtp_timesvc_eps_ps_count{component="`+comp+`",host="h1"}`) {
			t.Errorf("exposition missing eps histogram for %s", comp)
		}
	}
	// Per-publish flush keeps the striped histogram exact: its count
	// equals the publish count for every component.
	h := p.reg.StripedHistogram("dtp_timesvc_eps_ps", "", 1000, 30, 1,
		"host", "h1", "component", "audit")
	if h.Count() != p.svc.Publishes() {
		t.Fatalf("striped count = %d, publishes = %d", h.Count(), p.svc.Publishes())
	}
}

func TestHealthHandler(t *testing.T) {
	p := newServedPair(t, 35, 0)
	p.sch.RunFor(simScale(1 * sim.Second))

	h := HealthHandler(map[string]*Service{"h1": p.svc})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out []HostHealth
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("healthz body not JSON: %v\n%s", err, body)
	}
	if len(out) != 1 || out[0].Host != "h1" {
		t.Fatalf("healthz hosts = %+v", out)
	}
	hh := out[0]
	if !hh.Serving || hh.Publishes == 0 || hh.BoundPs <= 0 {
		t.Fatalf("healthz entry = %+v", hh)
	}
	if len(hh.Attribution.Components) != int(numAttrComponents) || hh.Attribution.Dominant == "" {
		t.Fatalf("healthz attribution = %+v", hh.Attribution)
	}
}

func TestHealthHandlerBeforeFirstPublish(t *testing.T) {
	// A service that never published must still serve valid JSON (no
	// NaN shares) and report serving=false.
	p := newServedPair(t, 37, 0)
	p.svc.Stop()
	h := HealthHandler(map[string]*Service{"h1": p.svc})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var out []HostHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("healthz before publish not JSON: %v\n%s", err, rec.Body.String())
	}
	if out[0].Serving || out[0].Attribution.Dominant != "" {
		t.Fatalf("unpublished service entry = %+v", out[0])
	}
}
