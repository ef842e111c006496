package timesvc

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
)

// timeResponse is the JSON body served for one time query.
type timeResponse struct {
	Host       string  `json:"host"`
	UTCPs      float64 `json:"utc_ps"`
	EarliestPs float64 `json:"earliest_ps"`
	LatestPs   float64 `json:"latest_ps"`
	WidthPs    float64 `json:"width_ps"`
	Epoch      uint64  `json:"epoch"`
}

// Handler serves a Clock over HTTP:
//
//	GET <prefix>now       -> {"utc_ps": ..., "earliest_ps": ..., ...}
//	GET <prefix>interval  -> same body (alias; clients wanting only the
//	                         point estimate read utc_ps)
//
// Failed-closed reads (nothing published, or the snapshot aged past
// MaxAge) return 503 so clients distinguish "service degraded" from
// transport errors. The handler is an observability/demo surface on
// dtpd's existing listener, NOT the fast path — in-process readers use
// the Clock directly; the benchmark's serve_reads workload measures
// that path.
func Handler(host string, c *Clock) http.Handler {
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, r *http.Request) {
		// One load: the interval and the epoch come from the same snapshot.
		sn := c.store.cur.Load()
		utc, iv, err := sn.at(c.tb.Raw())
		if err != nil {
			status := http.StatusServiceUnavailable
			if !errors.Is(err, errNoSnapshot) && !errors.Is(err, ErrStale) {
				status = http.StatusInternalServerError
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(timeResponse{
			Host:       host,
			UTCPs:      utc,
			EarliestPs: iv.EarliestPs,
			LatestPs:   iv.LatestPs,
			WidthPs:    iv.WidthPs(),
			Epoch:      sn.Epoch,
		})
	}
	mux.HandleFunc("/now", serve)
	mux.HandleFunc("/interval", serve)
	return mux
}

// hostHealth is one host's entry in the /healthz body.
type hostHealth struct {
	Host      string `json:"host"`
	Publishes uint64 `json:"publishes"`
	Degraded  uint64 `json:"degraded"`
	// Serving is false while nothing has been published (whether a
	// published snapshot has aged out is a per-reader-timebase question
	// the fail-closed read path answers).
	Serving bool `json:"serving"`
	// BoundPs is the current snapshot's half-width (0 when not serving).
	BoundPs float64 `json:"bound_ps"`
	// Epoch is the current snapshot's epoch (0 when none).
	Epoch uint64 `json:"epoch"`
	// Attribution is the ε-budget split (see Service.Attribution).
	Attribution Attribution `json:"attribution"`
}

// HealthHandler serves a per-host serving-plane summary at its root:
// publish/degraded counters, whether reads currently succeed, the live
// bound, and the ε-budget attribution. Hosts are sorted, so the body is
// deterministic for a deterministic run. Reads only atomics and the
// snapshot store — safe to serve while the simulation runs.
func HealthHandler(services map[string]*Service) http.Handler {
	hosts := make([]string, 0, len(services))
	for h := range services {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := make([]hostHealth, 0, len(hosts))
		for _, h := range hosts {
			svc := services[h]
			hh := hostHealth{
				Host:        h,
				Publishes:   svc.Publishes(),
				Degraded:    svc.DegradedTicks(),
				Attribution: svc.Attribution(),
			}
			if snap, ok := svc.Store().Read(); ok {
				hh.Serving = true
				hh.BoundPs = snap.BoundPs
				hh.Epoch = snap.Epoch
			}
			out = append(out, hh)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}
