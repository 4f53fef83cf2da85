package summary

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"f3m/internal/ir"
	"f3m/internal/irgen"
	"f3m/internal/obs"
)

func genModule(t *testing.T, seed int64) *ir.Module {
	t.Helper()
	return irgen.Generate(irgen.DefaultConfig(seed)).Module
}

func TestExtractDeterministic(t *testing.T) {
	m := genModule(t, 7)
	a := Extract(m, Params{}, nil, nil)
	b := Extract(m, Params{}, nil, nil)
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("two extracts of the same module differ")
	}
	if a.NumFuncs == 0 || len(a.Funcs) != a.NumFuncs {
		t.Fatalf("bad function accounting: NumFuncs=%d len=%d", a.NumFuncs, len(a.Funcs))
	}
	if a.Version != Version {
		t.Fatalf("version %q", a.Version)
	}
}

func TestExtractStableAcrossParses(t *testing.T) {
	// The whole point of the stable encoding: the same textual module
	// parsed into two different type contexts must summarize
	// identically.
	m1 := genModule(t, 11)
	text := ir.ModuleString(m1)
	m2, err := ir.ParseModule(text)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := Extract(m1, Params{}, nil, nil).Encode()
	e2, _ := Extract(m2, Params{}, nil, nil).Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatal("summaries differ across independent parses of the same module")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ms := Extract(genModule(t, 13), Params{}, nil, nil)
	ms.Source = "some/path.ir"
	enc, err := ms.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(string(enc), "\n", 3)[1], Version) {
		t.Errorf("version header not near the top of the encoding")
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatal("decode/encode round trip not byte-identical")
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	ms := Extract(genModule(t, 13), Params{}, nil, nil)
	enc, _ := ms.Encode()
	bad := bytes.Replace(enc, []byte(Version), []byte("f3msum0"), 1)
	if _, err := Decode(bad); err == nil {
		t.Error("unknown version accepted")
	}
	truncated := bytes.Replace(enc, []byte(`"minhash": "`), []byte(`"minhash": "ab`), 1)
	if _, err := Decode(truncated); err == nil {
		t.Error("fingerprint with wrong lane count accepted")
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode([]byte(`{"version":"f3msum1","funcs":[null]}`)); err == nil {
		t.Error("null function entry accepted")
	}
	// k=1 resolves to b = k/r = 0 bands, which planning cannot index.
	if _, err := Decode([]byte(`{"version":"f3msum1","params":{"k":1}}`)); err == nil {
		t.Error("params with no LSH band accepted")
	}
}

func TestMatches(t *testing.T) {
	m := genModule(t, 17)
	ms := Extract(m, Params{}, nil, nil)
	var fs *FuncSummary
	for _, c := range ms.Funcs {
		if m.Func(c.Name) != nil && !m.Func(c.Name).IsDecl() {
			fs = c
			break
		}
	}
	if fs == nil {
		t.Fatal("no summarized definition")
	}
	f := m.Func(fs.Name)
	if !fs.Matches(f) {
		t.Fatal("fresh summary does not match its own function")
	}
	if fs.Matches(nil) {
		t.Error("nil function matched")
	}
	corrupt := *fs
	corrupt.SeqDigest ^= 1
	if corrupt.Matches(f) {
		t.Error("corrupted digest matched")
	}
	corrupt = *fs
	corrupt.SigHash ^= 1
	if corrupt.Matches(f) {
		t.Error("corrupted signature hash matched")
	}
	corrupt = *fs
	corrupt.SeqLen++
	if corrupt.Matches(f) {
		t.Error("corrupted length matched")
	}
}

func TestIndexAddRejections(t *testing.T) {
	m := genModule(t, 19)
	parts, err := ir.SplitModule(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := Extract(parts[0], Params{}, nil, nil)
	b := Extract(parts[1], Params{}, nil, nil)

	ix := NewIndex()
	if err := ix.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(a); err == nil {
		t.Error("duplicate module name accepted")
	}
	renamed := *a
	renamed.Module = a.Module + ".copy"
	if err := ix.Add(&renamed); err == nil {
		t.Error("duplicate definitions accepted")
	}
	twice := *b
	twice.Funcs = append([]*FuncSummary{b.Funcs[0]}, b.Funcs...)
	if err := ix.Add(&twice); err == nil {
		t.Error("function listed twice in one module accepted")
	}
	bad := *b
	bad.Version = "f3msum0"
	if err := ix.Add(&bad); err == nil {
		t.Error("version mismatch accepted")
	}
	other := Extract(parts[1], Params{K: 100, Bands: 50}, nil, nil)
	if err := ix.Add(other); err == nil {
		t.Error("params mismatch accepted")
	}
	if err := ix.Add(b); err != nil {
		t.Fatal(err)
	}
	if len(ix.Modules()) != 2 {
		t.Fatalf("modules: %d", len(ix.Modules()))
	}
}

// planString renders a plan canonically for comparison.
func planString(p *Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "funcs=%d cross=%d t=%v\n", p.NumFuncs, p.CrossModule, p.Threshold)
	for _, pr := range p.Pairs {
		fmt.Fprintf(&sb, "%s + %s sim=%v cross=%v\n", pr.A.Name, pr.B.Name, pr.Similarity, pr.CrossModule())
	}
	return sb.String()
}

func TestPlanDeterministicAcrossOrder(t *testing.T) {
	m := genModule(t, 23)
	parts, err := ir.SplitModule(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]*ModuleSummary, len(parts))
	for i, p := range parts {
		sums[i] = Extract(p, Params{}, nil, nil)
	}

	build := func(order []int) *Index {
		ix := NewIndex()
		for _, i := range order {
			if err := ix.Add(sums[i]); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	base := planString(build([]int{0, 1, 2, 3}).Plan(-1, 1, nil))
	if !strings.Contains(base, "+") {
		t.Fatal("plan is empty; test is vacuous")
	}
	for _, order := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}} {
		if got := planString(build(order).Plan(-1, 1, nil)); got != base {
			t.Errorf("plan depends on ingestion order %v:\n--- base ---\n%s\n--- got ---\n%s", order, base, got)
		}
	}
}

func TestPlanFindsCrossModulePairs(t *testing.T) {
	// Round-robin splitting scatters each irgen family across
	// partitions, so a global plan must pair functions from different
	// modules.
	m := genModule(t, 29)
	parts, err := ir.SplitModule(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	for _, p := range parts {
		if err := ix.Add(Extract(p, Params{}, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	mx := obs.NewMetrics()
	plan := ix.Plan(-1, 1, mx)
	if plan.CrossModule == 0 {
		t.Fatal("global plan found no cross-module pairs")
	}
	if got := mx.CounterValue("summary.planned"); got != int64(len(plan.Pairs)) {
		t.Errorf("summary.planned=%d, want %d", got, len(plan.Pairs))
	}
	if got := mx.CounterValue("summary.planned_cross"); got != int64(plan.CrossModule) {
		t.Errorf("summary.planned_cross=%d, want %d", got, plan.CrossModule)
	}
}

func TestExtractMetrics(t *testing.T) {
	m := genModule(t, 31)
	mx := obs.NewMetrics()
	ms := Extract(m, Params{}, nil, mx)
	if got := mx.CounterValue("summary.extracted"); got != int64(ms.NumFuncs) {
		t.Errorf("summary.extracted=%d, want %d", got, ms.NumFuncs)
	}
	h := mx.Histogram("summary.bytes_per_func", nil)
	if h.Count() != int64(ms.NumFuncs) {
		t.Errorf("bytes_per_func count=%d, want %d", h.Count(), ms.NumFuncs)
	}
	if h.Sum() <= 0 {
		t.Error("bytes_per_func sum not positive")
	}
}
