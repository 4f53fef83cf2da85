package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"f3m/internal/analysis/summary"
)

// Route describes one API endpoint: the smoke gate drives every route
// and the docs-drift check asserts SERVING.md documents each one.
type Route struct {
	// Method and Pattern form the ServeMux registration (Go 1.22
	// method patterns; Pattern may contain {name} wildcards).
	Method, Pattern string

	// Name is the metrics/span identifier (serve.endpoint.<Name>.*).
	Name string

	// Doc is a one-line summary, echoed by the API index endpoint.
	Doc string
}

// Routes lists every endpoint the server registers, in documentation
// order. The slice is freshly allocated per call.
func Routes() []Route {
	return []Route{
		{"GET", "/v1/healthz", "healthz", "liveness plus module/function/epoch counters"},
		{"GET", "/v1/modules", "modules.list", "list live modules (sorted by name)"},
		{"POST", "/v1/modules", "modules.submit", "submit a module: {\"name\", \"ir\"}"},
		{"GET", "/v1/modules/{name}", "modules.get", "one module's info"},
		{"DELETE", "/v1/modules/{name}", "modules.remove", "remove a module and unindex its functions"},
		{"GET", "/v1/summaries", "summaries", "per-function merge summaries of every live module (cross-module planning input)"},
		{"POST", "/v1/query", "query", "find near-duplicates of a stored or inline function"},
		{"POST", "/v1/merge", "merge", "re-merge the live corpus"},
		{"GET", "/v1/report", "report", "last merge report (summary, pairs, diagnostics)"},
		{"GET", "/v1/merged", "merged", "textual IR of the last merged module"},
		{"GET", "/v1/metrics", "metrics", "metrics registry (JSON; ?format=text for funnel+text)"},
		{"POST", "/v1/snapshot", "snapshot", "write a snapshot: {\"path\"?}"},
		{"POST", "/v1/restore", "restore", "replace state from a snapshot: {\"path\"?}"},
		{"POST", "/v1/shutdown", "shutdown", "begin graceful shutdown (when enabled)"},
	}
}

// apiError is the JSON error envelope: {"error": {"code", "message"}}.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// httpStatus maps server errors onto status codes and API error codes.
func httpStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrModuleExists):
		return http.StatusConflict, "conflict"
	case errors.Is(err, ErrNoModules):
		return http.StatusConflict, "no_modules"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "unavailable"
	default:
		return http.StatusBadRequest, "invalid_request"
	}
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the JSON error envelope for err.
func writeError(w http.ResponseWriter, err error) {
	status, code := httpStatus(err)
	var e apiError
	e.Error.Code = code
	e.Error.Message = err.Error()
	writeJSON(w, status, e)
}

// latencyBounds buckets request latencies in milliseconds.
var latencyBounds = []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// handle wraps an endpoint with the request lifecycle: shutdown
// refusal, in-flight tracking (what Close drains), per-endpoint and
// aggregate metrics, and a request span.
func (s *Server) handle(name string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.begin(); err != nil {
			s.mx.Counter("serve.rejected").Inc()
			writeError(w, err)
			return
		}
		defer s.inflight.Done()
		start := time.Now()
		sp := s.cfg.Tracer.StartSpan("http." + name)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		s.mx.Counter("serve.requests").Inc()
		s.mx.Counter("serve.endpoint." + name + ".requests").Inc()
		fn(w, r)
		sp.End()
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		s.mx.VolatileHistogram("serve.latency_ms", latencyBounds).Observe(ms)
	}
}

// fail records an endpoint error and writes the error envelope.
func (s *Server) fail(w http.ResponseWriter, name string, err error) {
	s.mx.Counter("serve.errors").Inc()
	s.mx.Counter("serve.endpoint." + name + ".errors").Inc()
	writeError(w, err)
}

// maxBodyBytes caps every request body; a larger body is refused with
// 413 too_large.
const maxBodyBytes = 64 << 20

// decodeBody decodes a JSON request body into v, rejecting unknown
// fields so typos in client payloads surface as errors rather than
// silently ignored options. An empty body decodes as all-defaults when
// allowEmpty is set (Decode returns io.EOF verbatim on an empty body).
// The body is read to its end, so the size cap applies to all of it,
// not only to the JSON value at its front.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if allowEmpty && errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("invalid request body: %w", err)
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// Handler builds the HTTP API. The returned handler is safe for
// concurrent use and may be wrapped (httptest, custom servers).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handlers := map[string]http.HandlerFunc{
		"healthz":        s.handleHealthz,
		"modules.list":   s.handleModulesList,
		"modules.submit": s.handleModulesSubmit,
		"modules.get":    s.handleModulesGet,
		"modules.remove": s.handleModulesRemove,
		"summaries":      s.handleSummaries,
		"query":          s.handleQuery,
		"merge":          s.handleMerge,
		"report":         s.handleReport,
		"merged":         s.handleMerged,
		"metrics":        s.handleMetrics,
		"snapshot":       s.handleSnapshot,
		"restore":        s.handleRestore,
		"shutdown":       s.handleShutdown,
	}
	for _, rt := range Routes() {
		fn, ok := handlers[rt.Name]
		if !ok {
			panic("serve: route without handler: " + rt.Name)
		}
		mux.HandleFunc(rt.Method+" "+rt.Pattern, s.handle(rt.Name, fn))
	}
	// API index: handy for humans poking the service with curl.
	mux.HandleFunc("GET /v1/{$}", s.handle("index", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			Method  string `json:"method"`
			Pattern string `json:"pattern"`
			Doc     string `json:"doc"`
		}
		var out []entry
		for _, rt := range Routes() {
			out = append(out, entry{rt.Method, rt.Pattern, rt.Doc})
		}
		writeJSON(w, http.StatusOK, map[string]any{"endpoints": out})
	}))
	return mux
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Healthz())
}

// handleModulesList serves GET /v1/modules.
func (s *Server) handleModulesList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"modules": s.Modules()})
}

// handleModulesSubmit serves POST /v1/modules.
func (s *Server) handleModulesSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		IR   string `json:"ir"`
	}
	if err := decodeBody(w, r, &req, false); err != nil {
		s.fail(w, "modules.submit", err)
		return
	}
	info, err := s.SubmitModule(req.Name, req.IR)
	if err != nil {
		s.fail(w, "modules.submit", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleModulesGet serves GET /v1/modules/{name}.
func (s *Server) handleModulesGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.Module(r.PathValue("name"))
	if err != nil {
		s.fail(w, "modules.get", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleModulesRemove serves DELETE /v1/modules/{name}.
func (s *Server) handleModulesRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.RemoveModule(name); err != nil {
		s.fail(w, "modules.remove", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// handleSummaries serves GET /v1/summaries: the live corpus as
// versioned per-function merge summaries, the planning input of the
// cross-module workflow (see DESIGN.md, "Cross-module merging").
func (s *Server) handleSummaries(w http.ResponseWriter, r *http.Request) {
	sums, err := s.Summaries()
	if err != nil {
		s.fail(w, "summaries", err)
		return
	}
	if sums == nil {
		sums = []*summary.ModuleSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":   s.Store().Epoch(),
		"modules": sums,
	})
}

// handleQuery serves POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Module        string  `json:"module"`
		Func          string  `json:"func"`
		IR            string  `json:"ir"`
		MinSimilarity float64 `json:"min_similarity"`
		K             int     `json:"k"`
	}
	if err := decodeBody(w, r, &req, false); err != nil {
		s.fail(w, "query", err)
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	var (
		matches []Match
		err     error
	)
	switch {
	case req.IR != "" && req.Module != "":
		err = fmt.Errorf("pass either \"ir\" (inline probe) or \"module\" (stored probe), not both")
	case req.IR != "":
		matches, err = s.QueryIR(req.IR, req.Func, req.MinSimilarity, req.K)
	case req.Module != "":
		matches, err = s.QueryStored(req.Module, req.Func, req.MinSimilarity, req.K)
	default:
		err = fmt.Errorf("pass \"ir\" (inline probe) or \"module\"+\"func\" (stored probe)")
	}
	if err != nil {
		s.fail(w, "query", err)
		return
	}
	if matches == nil {
		matches = []Match{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":   s.Store().Epoch(),
		"matches": matches,
	})
}

// handleMerge serves POST /v1/merge.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	sum, err := s.Merge()
	if err != nil {
		s.fail(w, "merge", err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// handleReport serves GET /v1/report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sum, pairs, diags, ok := s.LastMerge()
	if !ok {
		s.fail(w, "report", fmt.Errorf("%w: no merge has run", ErrNotFound))
		return
	}
	if pairs == nil {
		pairs = []PairInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"summary":     sum,
		"pairs":       pairs,
		"diagnostics": diags,
	})
}

// handleMerged serves GET /v1/merged.
func (s *Server) handleMerged(w http.ResponseWriter, r *http.Request) {
	text, ok := s.MergedIR()
	if !ok {
		s.fail(w, "merged", fmt.Errorf("%w: no merge has run", ErrNotFound))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(text))
}

// handleMetrics serves GET /v1/metrics. The default is the
// deterministic JSON export; ?format=text renders the funnel plus the
// full text dump (including volatile counters).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.mx == nil {
		s.fail(w, "metrics", fmt.Errorf("%w: metrics are disabled", ErrNotFound))
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.mx.WriteFunnel(w)
		fmt.Fprintln(w)
		s.mx.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.mx.WriteJSON(w)
}

// handleSnapshot serves POST /v1/snapshot.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	if err := decodeBody(w, r, &req, true); err != nil {
		s.fail(w, "snapshot", err)
		return
	}
	info, err := s.Snapshot(req.Path)
	if err != nil {
		s.fail(w, "snapshot", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleRestore serves POST /v1/restore.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	if err := decodeBody(w, r, &req, true); err != nil {
		s.fail(w, "restore", err)
		return
	}
	info, err := s.Restore(req.Path)
	if err != nil {
		s.fail(w, "restore", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleShutdown serves POST /v1/shutdown.
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableShutdown {
		s.fail(w, "shutdown", fmt.Errorf("%w: shutdown endpoint disabled", ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "shutting down"})
	s.requestShutdown()
}
