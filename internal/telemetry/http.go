package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"

	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/wire"
)

// Handler serves the daemon's HTTP observability surface (cmd/p4rpd's
// -metrics-addr listener):
//
//	/metrics    Prometheus text exposition of reg
//	/telemetry  JSON: sweep-engine scrape + postcards (?owner=&limit=)
//	/healthz    liveness probe ("ok")
//
// eng may be nil (a daemon running without a sweep engine, e.g. fleet mode
// before per-member engines attach): /metrics and /healthz still work and
// /telemetry reports the engine as absent. Equivalent to HandlerT with no
// tracer or flight recorder.
func Handler(reg *obs.Registry, eng *Engine) http.Handler {
	return HandlerT(reg, eng, nil, nil)
}

// HandlerT is Handler plus the trace-inspection surface:
//
//	/debug/traces    JSON: recent completed traces (?slow=&verb=&limit=&trace=<id>)
//	/debug/flightrec JSON: flight-recorder dump (the debug.flightrec verb's body)
//
// tr and fr may be nil: the routes then answer with empty listings, so
// scrapers need not know whether tracing is wired.
func HandlerT(reg *obs.Registry, eng *Engine, tr *trace.Tracer, fr *trace.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone mid-write
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // client gone mid-write
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if eng == nil {
			http.Error(w, `{"error":"no telemetry engine"}`, http.StatusNotFound)
			return
		}
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil {
				limit = n
			}
		}
		body := struct {
			Programs  wire.TelemetryProgramsResult  `json:"programs"`
			Postcards wire.TelemetryPostcardsResult `json:"postcards"`
		}{
			Programs:  eng.Result(),
			Postcards: eng.Postcards(r.URL.Query().Get("owner"), limit),
		}
		json.NewEncoder(w).Encode(body) //nolint:errcheck // client gone mid-write
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		q := r.URL.Query()
		if s := q.Get("trace"); s != "" {
			id, ok := trace.ParseTraceID(s)
			if !ok {
				http.Error(w, `{"error":"bad trace id (want 32 hex digits)"}`, http.StatusBadRequest)
				return
			}
			ts, ok := tr.Lookup(id)
			if !ok {
				http.Error(w, `{"error":"trace not found (evicted or never recorded)"}`, http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(wire.SnapToJSON(ts)) //nolint:errcheck // client gone mid-write
			return
		}
		limit := 0
		if s := q.Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil {
				limit = n
			}
		}
		var snaps []trace.TraceSnap
		if q.Get("slow") != "" {
			snaps = tr.Slowest(q.Get("verb"))
			if limit > 0 && len(snaps) > limit {
				snaps = snaps[:limit]
			}
		} else {
			snaps = tr.Recent(limit)
		}
		res := wire.OpsResult{Traces: []wire.TraceJSON{}}
		for _, ts := range snaps {
			res.Traces = append(res.Traces, wire.SnapToJSON(ts))
		}
		json.NewEncoder(w).Encode(res) //nolint:errcheck // client gone mid-write
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		res := wire.FlightRecResult{Events: []wire.FlightEventJSON{}}
		for _, ev := range fr.Events() {
			res.Events = append(res.Events, wire.EventToJSON(ev))
		}
		json.NewEncoder(w).Encode(res) //nolint:errcheck // client gone mid-write
	})
	return mux
}
