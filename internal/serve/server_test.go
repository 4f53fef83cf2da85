package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/obs"
)

// genModule renders a synthetic module with prefixed function names.
func genModule(seed int64, prefix string) string {
	gcfg := irgen.DefaultConfig(seed)
	gcfg.Families = 2
	gcfg.FamilySizeMin, gcfg.FamilySizeMax = 2, 2
	gcfg.Singletons = 1
	gcfg.Callers = 1
	res := irgen.Generate(gcfg)
	for _, f := range res.Module.Funcs {
		res.Module.RenameFunc(f, prefix+f.Name())
	}
	return ir.ModuleString(res.Module)
}

// newTestServer builds a server with metrics plus its HTTP test host.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Metrics = obs.NewMetrics()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.snap")
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// call issues one JSON request and returns status plus decoded body.
func call(t *testing.T, ts *httptest.Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		out = nil
	}
	return resp.StatusCode, out
}

// errCode digs the API error code out of a decoded error envelope.
func errCode(body map[string]any) string {
	e, _ := body["error"].(map[string]any)
	c, _ := e["code"].(string)
	return c
}

func TestEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	src := genModule(1, "a_")

	// Merge with an empty corpus.
	if st, body := call(t, ts, "POST", "/v1/merge", nil); st != http.StatusConflict || errCode(body) != "no_modules" {
		t.Fatalf("empty merge: status %d code %q", st, errCode(body))
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/modules", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Unknown request field.
	if st, _ := call(t, ts, "POST", "/v1/modules", map[string]string{"name": "a", "irx": src}); st != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", st)
	}
	// Invalid IR.
	if st, _ := call(t, ts, "POST", "/v1/modules", map[string]string{"name": "a", "ir": "junk"}); st != http.StatusBadRequest {
		t.Fatalf("invalid IR: status %d, want 400", st)
	}
	// Valid submit, then duplicate.
	if st, _ := call(t, ts, "POST", "/v1/modules", map[string]string{"name": "a", "ir": src}); st != http.StatusCreated {
		t.Fatalf("submit: status %d, want 201", st)
	}
	if st, body := call(t, ts, "POST", "/v1/modules", map[string]string{"name": "a", "ir": src}); st != http.StatusConflict || errCode(body) != "conflict" {
		t.Fatalf("duplicate submit: status %d code %q", st, errCode(body))
	}
	// Missing module / function.
	if st, body := call(t, ts, "GET", "/v1/modules/zzz", nil); st != http.StatusNotFound || errCode(body) != "not_found" {
		t.Fatalf("missing module: status %d code %q", st, errCode(body))
	}
	if st, _ := call(t, ts, "DELETE", "/v1/modules/zzz", nil); st != http.StatusNotFound {
		t.Fatalf("missing delete: status %d, want 404", st)
	}
	if st, _ := call(t, ts, "POST", "/v1/query", map[string]any{"module": "a", "func": "no_such"}); st != http.StatusNotFound {
		t.Fatalf("missing probe func: status %d, want 404", st)
	}
	// Report before any merge.
	if st, _ := call(t, ts, "GET", "/v1/report", nil); st != http.StatusNotFound {
		t.Fatalf("report before merge: status %d, want 404", st)
	}
	// A body one byte over the cap, streamed: a valid request followed
	// by padding, so the cap is what refuses it.
	head := `{"name":"big","ir":""}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/modules",
		io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, maxBodyBytes+1-int64(len(head)))))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxBodyBytes + 1
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(body) != "too_large" {
		t.Fatalf("oversized body: status %d code %q, want 413 too_large", resp.StatusCode, errCode(body))
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestShutdownDrainRefuses503(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, body := call(t, ts, "GET", "/v1/healthz", nil)
	if st != http.StatusServiceUnavailable || errCode(body) != "unavailable" {
		t.Fatalf("after close: status %d code %q, want 503 unavailable", st, errCode(body))
	}
}

func TestShutdownEndpointDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableShutdown = false
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if st, _ := call(t, ts, "POST", "/v1/shutdown", nil); st != http.StatusNotFound {
		t.Fatalf("disabled shutdown: status %d, want 404", st)
	}
}

func TestMetricsExposeRequestCounters(t *testing.T) {
	srv, ts := newTestServer(t)
	call(t, ts, "GET", "/v1/healthz", nil)
	call(t, ts, "GET", "/v1/modules", nil)
	mx := srv.cfg.Metrics
	if got := mx.CounterValue("serve.requests"); got != 2 {
		t.Fatalf("serve.requests = %d, want 2", got)
	}
	if got := mx.CounterValue("serve.endpoint.healthz.requests"); got != 1 {
		t.Fatalf("serve.endpoint.healthz.requests = %d, want 1", got)
	}
	// The metrics endpoint itself serves the registry as JSON.
	st, body := call(t, ts, "GET", "/v1/metrics", nil)
	if st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	counters, _ := body["counters"].(map[string]any)
	if _, ok := counters["serve.requests"]; !ok {
		t.Fatalf("metrics JSON missing serve.requests: %v", body)
	}
}

func TestQueryStoredAndInline(t *testing.T) {
	_, ts := newTestServer(t)
	src := genModule(3, "q_")
	st, body := call(t, ts, "POST", "/v1/modules", map[string]string{"name": "m", "ir": src})
	if st != http.StatusCreated {
		t.Fatalf("submit: status %d", st)
	}
	funcs := body["funcs"].([]any)
	probe := funcs[0].(string)

	// Stored probe never matches itself.
	st, body = call(t, ts, "POST", "/v1/query", map[string]any{"module": "m", "func": probe, "k": 50})
	if st != http.StatusOK {
		t.Fatalf("stored query: status %d", st)
	}
	for _, m := range body["matches"].([]any) {
		mm := m.(map[string]any)
		if mm["module"] == "m" && mm["func"] == probe {
			t.Fatalf("stored probe matched itself: %v", mm)
		}
	}

	// Inline probe of the same function must find the stored copy at
	// similarity 1 — the stable encoding makes separately parsed
	// modules comparable.
	st, body = call(t, ts, "POST", "/v1/query", map[string]any{"ir": src, "func": probe, "min_similarity": 0.99})
	if st != http.StatusOK {
		t.Fatalf("inline query: status %d", st)
	}
	matches := body["matches"].([]any)
	if len(matches) == 0 {
		t.Fatal("inline self-probe found nothing; stable encoding broken?")
	}
	top := matches[0].(map[string]any)
	if top["func"] != probe || top["similarity"].(float64) < 0.999 {
		t.Fatalf("inline self-probe top match %v, want %s at sim 1", top, probe)
	}
}

// TestServingDocCoversRoutes is the docs-drift unit check: every
// registered route must appear verbatim ("METHOD /pattern") in
// SERVING.md. The smoke gate re-runs the same check from check.sh.
func TestServingDocCoversRoutes(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "SERVING.md"))
	if err != nil {
		t.Fatalf("SERVING.md unreadable: %v", err)
	}
	for _, rt := range Routes() {
		needle := fmt.Sprintf("%s %s", rt.Method, rt.Pattern)
		if !bytes.Contains(doc, []byte(needle)) {
			t.Errorf("SERVING.md does not document %q", needle)
		}
	}
}

func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("selfcheck boots a real listener")
	}
	var out bytes.Buffer
	if err := SelfCheck(&out, filepath.Join("..", "..", "SERVING.md")); err != nil {
		t.Fatalf("selfcheck failed: %v\n%s", err, out.String())
	}
}
