package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"
)

// httpQuery is the JSON body accepted by POST /query.
type httpQuery struct {
	// Query holds one or more ';'-separated statements.
	Query string `json:"query"`
	// Lang overrides the server's default statement language ("sql" or
	// "xra"); empty inherits.
	Lang string `json:"lang,omitempty"`
	// TimeoutMS overrides the server's statement timeout for this query;
	// zero inherits.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Serializable upgrades the query's transaction to validate its read
	// set at commit, not just its write set.
	Serializable bool `json:"serializable,omitempty"`
}

// HTTPHandler returns the curl-able HTTP front-end: POST /query runs a
// statement line as one auto-committed transaction and answers with the same
// Response JSON the TCP protocol uses; GET /healthz reports liveness.  The
// request body may be the JSON form {"query": "...", "lang": "sql"} or raw
// statement text.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleQuery serves POST /query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed,
			Response{OK: false, State: StateIdle, Error: "use POST with a query body"})
		return
	}
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable,
			Response{OK: false, State: StateIdle, Error: "server is shutting down"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			Response{OK: false, State: StateIdle, Error: "reading request body: " + err.Error()})
		return
	}
	q := httpQuery{Query: string(body)}
	if strings.HasPrefix(strings.TrimSpace(r.Header.Get("Content-Type")), "application/json") {
		q = httpQuery{}
		if err := json.Unmarshal(body, &q); err != nil {
			writeJSON(w, http.StatusBadRequest,
				Response{OK: false, State: StateIdle, Error: "decoding JSON body: " + err.Error()})
			return
		}
	}
	if strings.TrimSpace(q.Query) == "" {
		writeJSON(w, http.StatusBadRequest,
			Response{OK: false, State: StateIdle, Error: "empty query"})
		return
	}
	sql := !s.cfg.XRA
	switch strings.ToLower(q.Lang) {
	case "":
	case "sql":
		sql = true
	case "xra":
		sql = false
	default:
		writeJSON(w, http.StatusBadRequest,
			Response{OK: false, State: StateIdle, Error: `lang must be "sql" or "xra"`})
		return
	}

	ctx := r.Context()
	timeout := s.cfg.StatementTimeout
	if q.TimeoutMS > 0 {
		timeout = time.Duration(q.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	s.statements.Add(1)
	start := time.Now()
	opts := mraTxOptions(s.cfg)
	opts.Serializable = q.Serializable
	resp := s.autocommit(ctx, q.Query, sql, opts)
	resp.State = StateIdle
	resp.ElapsedUS = time.Since(start).Microseconds()

	status := http.StatusOK
	switch {
	case resp.Conflict:
		status = http.StatusConflict
	case !resp.OK:
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable,
			Response{OK: false, State: StateIdle, Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, Response{OK: true, State: StateIdle})
}

// writeJSON writes one JSON response with the given status.  The body is
// encoded before the status is sent, so a response the encoder cannot carry
// goes out as a 500 with an error body instead of an empty 200.
func writeJSON(w http.ResponseWriter, status int, resp Response) {
	body, err := json.Marshal(resp)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(unencodable(resp, err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
