package telemetry

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Handler returns an http.Handler serving the registry at /metrics
// (Prometheus text exposition) and the tracer at /trace (JSONL with a
// dtp-trace/1 header line carrying drop accounting). Either argument
// may be nil: a nil registry serves an empty body, a nil tracer a
// zeroed header.
//
// /trace supports query filtering:
//
//	?kind=<name>[,<name>...]  keep only the named kinds (snake_case,
//	                          e.g. kind=counter_jump,bound_violation)
//	?limit=N                  keep only the N most recent matching events
//
// An unknown kind name or a non-positive limit is a 400.
func Handler(r *Registry, t *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		events := t.Events()
		q := req.URL.Query()
		if raw := q.Get("kind"); raw != "" {
			var mask uint64
			for _, name := range strings.Split(raw, ",") {
				k, ok := kindFromString(strings.TrimSpace(name))
				if !ok {
					http.Error(w, fmt.Sprintf("unknown trace kind %q", strings.TrimSpace(name)), http.StatusBadRequest)
					return
				}
				mask |= 1 << k
			}
			kept := events[:0]
			for _, e := range events {
				if mask&(1<<e.Kind) != 0 {
					kept = append(kept, e)
				}
			}
			events = kept
		}
		if raw := q.Get("limit"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n <= 0 {
				http.Error(w, fmt.Sprintf("bad limit %q: want a positive integer", raw), http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = WriteTraceHeader(w, len(events), t.Total(), t.Dropped())
		_ = WriteEvents(w, events)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("dtp telemetry: GET /metrics (Prometheus) or /trace (JSONL; ?kind=a,b&limit=N)\n"))
	})
	return mux
}
