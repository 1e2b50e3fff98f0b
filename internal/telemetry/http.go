package telemetry

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"

	"p4runpro/internal/obs"
	"p4runpro/internal/wire"
)

// Handler serves the daemon's HTTP observability surface (cmd/p4rpd's
// -metrics-addr listener):
//
//	/metrics          Prometheus text exposition of reg
//	/healthz          liveness probe ("ok")
//	/telemetry        JSON: {"programs": telemetry.programs, "postcards": telemetry.postcards} (?owner=&limit=)
//	/debug/traces     JSON: debug.ops (?slow=&verb=&limit=), or debug.trace with ?trace=<id>
//	/debug/flightrec  JSON: debug.flightrec
//
// The JSON routes answer through srv's verb table in process (wire.Server.Do),
// so each body is its verb's result. A verb srv cannot serve — the
// telemetry.* verbs on a fleet daemon, which attaches no sweep engine —
// answers 404 with the verb's error.
func Handler(reg *obs.Registry, srv *wire.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone mid-write
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // client gone mid-write
	})
	// do runs one verb and returns its result as raw JSON; a failed verb
	// has already been answered.
	do := func(w http.ResponseWriter, r *http.Request, method string, params any) (json.RawMessage, bool) {
		w.Header().Set("Content-Type", "application/json")
		var res json.RawMessage
		if _, err := srv.Do(r.Context(), method, params, &res); err != nil {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck // client gone mid-write
			return nil, false
		}
		return res, true
	}
	reply := func(w http.ResponseWriter, body any) {
		json.NewEncoder(w).Encode(body) //nolint:errcheck // client gone mid-write
	}
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		programs, ok := do(w, r, wire.MethodTelemetryPrograms, nil)
		if !ok {
			return
		}
		postcards, ok := do(w, r, wire.MethodTelemetryPostcards,
			wire.TelemetryPostcardsParams{Owner: q.Get("owner"), Limit: intParam(q, "limit")})
		if !ok {
			return
		}
		reply(w, struct {
			Programs  json.RawMessage `json:"programs"`
			Postcards json.RawMessage `json:"postcards"`
		}{programs, postcards})
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		method, params := wire.MethodDebugOps, any(wire.OpsParams{Slow: q.Get("slow") != "", Verb: q.Get("verb"), Limit: intParam(q, "limit")})
		if id := q.Get("trace"); id != "" {
			method, params = wire.MethodDebugTrace, wire.TraceGetParams{ID: id}
		}
		if res, ok := do(w, r, method, params); ok {
			reply(w, res)
		}
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		if res, ok := do(w, r, wire.MethodDebugFlightrec, nil); ok {
			reply(w, res)
		}
	})
	return mux
}

// intParam reads an integer query parameter; absent or malformed is 0.
func intParam(q url.Values, name string) int {
	n, _ := strconv.Atoi(q.Get(name))
	return n
}
