package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"

	"f3m/internal/core"
	"f3m/internal/ir"
)

// TestLoadByteIdenticalReports is the service's central contract test:
// N concurrent clients drive submit/query/remove/merge traffic, and the
// final merge report must be byte-identical — same CanonicalReport,
// same SHA-256 key — to a one-shot core.Run over the same module set,
// regardless of client count, interleaving, mid-run merges or the
// persistent alignment cache. Run with -race this doubles as the
// serving layer's lock-discipline test.
func TestLoadByteIdenticalReports(t *testing.T) {
	for _, clients := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			runLoad(t, clients)
		})
	}
}

// runLoad drives one load round and checks the identity.
func runLoad(t *testing.T, clients int) {
	srv, ts := newTestServer(t)

	// Each client owns two permanent modules plus one temporary module
	// it submits and removes mid-run, so the final corpus is fixed while
	// the traffic history is not.
	type mod struct{ name, src string }
	perm := make(map[string]string)
	work := make([][]mod, clients)
	for c := 0; c < clients; c++ {
		a := mod{fmt.Sprintf("mod-%02d-a", c), genModule(int64(100+2*c), fmt.Sprintf("c%da_", c))}
		b := mod{fmt.Sprintf("mod-%02d-b", c), genModule(int64(101+2*c), fmt.Sprintf("c%db_", c))}
		tmp := mod{fmt.Sprintf("tmp-%02d", c), genModule(int64(500+c), fmt.Sprintf("t%d_", c))}
		work[c] = []mod{a, b, tmp}
		perm[a.name] = a.src
		perm[b.name] = b.src
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a, b, tmp := work[c][0], work[c][1], work[c][2]
			step := func(st int, want int, what string) bool {
				if st != want {
					errs <- fmt.Errorf("client %d: %s: status %d, want %d", c, what, st, want)
					return false
				}
				return true
			}
			st, _ := call(t, ts, "POST", "/v1/modules", map[string]string{"name": a.name, "ir": a.src})
			if !step(st, http.StatusCreated, "submit a") {
				return
			}
			st, _ = call(t, ts, "POST", "/v1/query", map[string]any{"ir": a.src, "min_similarity": 0.9, "k": 3, "func": firstFunc(t, a.src)})
			if !step(st, http.StatusOK, "inline query") {
				return
			}
			st, _ = call(t, ts, "POST", "/v1/modules", map[string]string{"name": tmp.name, "ir": tmp.src})
			if !step(st, http.StatusCreated, "submit tmp") {
				return
			}
			// Mid-run merge: result is schedule-dependent traffic, only
			// the final quiescent merge is asserted on.
			st, _ = call(t, ts, "POST", "/v1/merge", nil)
			if !step(st, http.StatusOK, "mid merge") {
				return
			}
			st, _ = call(t, ts, "GET", "/v1/modules/"+a.name, nil)
			if !step(st, http.StatusOK, "get a") {
				return
			}
			st, _ = call(t, ts, "DELETE", "/v1/modules/"+tmp.name, nil)
			if !step(st, http.StatusOK, "remove tmp") {
				return
			}
			st, _ = call(t, ts, "POST", "/v1/modules", map[string]string{"name": b.name, "ir": b.src})
			if !step(st, http.StatusCreated, "submit b") {
				return
			}
			st, _ = call(t, ts, "GET", "/v1/healthz", nil)
			step(st, http.StatusOK, "healthz")
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent final merge through the API.
	st, body := call(t, ts, "POST", "/v1/merge", nil)
	if st != http.StatusOK {
		t.Fatalf("final merge: status %d", st)
	}
	gotKey, _ := body["report_key"].(string)
	if gotKey == "" {
		t.Fatal("final merge returned no report key")
	}
	if int(body["modules"].(float64)) != len(perm) {
		t.Fatalf("final merge saw %v modules, want %d", body["modules"], len(perm))
	}

	// One-shot equivalent: canonicalize and link the same module set in
	// name order, run the pipeline with a different worker schedule and
	// no alignment-cache history, and compare canonical reports.
	names := make([]string, 0, len(perm))
	for n := range perm {
		names = append(names, n)
	}
	sort.Strings(names)
	mods := make([]*ir.Module, len(names))
	for i, n := range names {
		m, err := ir.ParseModule(canonicalIR(t, perm[n]))
		if err != nil {
			t.Fatalf("reparse %s: %v", n, err)
		}
		mods[i] = m
	}
	linked, err := ir.LinkModules("service", mods...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.F3MStatic)
	cfg.Workers = 1 // service merged with Workers=0 (parallel)
	rep, err := core.Run(linked, cfg)
	if err != nil {
		t.Fatal(err)
	}
	canon := CanonicalReport(rep)
	sum := sha256.Sum256([]byte(canon))
	wantKey := hex.EncodeToString(sum[:])
	if gotKey != wantKey {
		t.Fatalf("service report key %s != one-shot key %s\none-shot canonical report:\n%s", gotKey, wantKey, canon)
	}

	// The service's stored report agrees with what it returned.
	sumSrv, _, _, ok := srv.LastMerge()
	if !ok || sumSrv.ReportKey != gotKey {
		t.Fatalf("LastMerge key %s, want %s", sumSrv.ReportKey, gotKey)
	}
}

// canonicalIR round-trips src through the parser/printer, mirroring
// what SubmitModule stores.
func canonicalIR(t *testing.T, src string) string {
	t.Helper()
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return ir.ModuleString(m)
}

// firstFunc names some mergeable function of src for probe traffic.
func firstFunc(t *testing.T, src string) string {
	t.Helper()
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		if mergeable(f) {
			return f.Name()
		}
	}
	t.Fatal("no mergeable function in generated module")
	return ""
}
