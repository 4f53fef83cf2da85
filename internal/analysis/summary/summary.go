// Package summary implements the modular half of optimistic
// cross-module function merging: a static-analysis pass that reduces
// each separately-parsed ir.Module to a compact, serializable
// per-function summary, and a global index (index.go) that plans
// cross-module merges over summaries alone — without ever holding the
// whole program's IR in memory.
//
// The scheme mirrors the Optimistic Global Function Merger: a cheap
// summary pass runs over every translation unit, a global analysis
// ranks merge candidates from the summaries, and the merges themselves
// happen optimistically at link time. Optimism is what keeps the
// summaries small: they carry just enough to find candidates (a stable
// MinHash fingerprint) and to detect staleness (signature hash,
// sequence digest and length), not enough to prove a merge correct.
// The proof happens at link time, where internal/core re-checks every
// summary against the linked body (FuncSummary.Matches) and re-proves
// every commit with the translation validator — a stale or colliding
// summary degrades to a skipped merge, never a miscompile.
//
// Everything in a summary is derived from the context-independent
// stable encoding (fingerprint.EncodeFuncStable), so summaries
// extracted by different processes from separately parsed modules —
// or shipped between serve shards — remain comparable.
package summary

import (
	"encoding/json"
	"fmt"
	"sort"

	"f3m/internal/analysis"
	"f3m/internal/fingerprint"
	"f3m/internal/ir"
	"f3m/internal/obs"
)

// Version is the summary format version, checked on decode and on
// Index ingestion. Bump it whenever the stable encoding or the summary
// field semantics change: a version mismatch means the fingerprints
// are not comparable.
const Version = "f3msum1"

// FNV-1a 64-bit constants for the sequence digest.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Params fixes the fingerprint and LSH geometry a summary was
// extracted under. Two summaries are comparable only when their Params
// are equal; Index.Add enforces that.
type Params struct {
	// K is the MinHash fingerprint size.
	K int `json:"k"`

	// ShingleSize is the window length over the encoded stream.
	ShingleSize int `json:"shingle"`

	// Seed selects the MinHash hash family.
	Seed uint64 `json:"seed"`

	// Rows and Bands are the LSH banding shape used when planning.
	Rows  int `json:"rows"`
	Bands int `json:"bands"`

	// BucketCap caps per-bucket comparisons while planning; 0 means
	// the lsh package default.
	BucketCap int `json:"bucket_cap,omitempty"`
}

// DefaultParams returns the paper's defaults (k=200, shingle 2, r=2,
// b=k/r), matching both the in-process pipeline and the serve store.
func DefaultParams() Params {
	return Params{K: 200, ShingleSize: 2, Seed: 0xF3F3F3F3, Rows: 2, Bands: 100}
}

// withDefaults fills zero fields with the defaults.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.K == 0 {
		p.K = d.K
	}
	if p.ShingleSize == 0 {
		p.ShingleSize = d.ShingleSize
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Rows == 0 {
		p.Rows = d.Rows
	}
	if p.Bands == 0 {
		p.Bands = p.K / p.Rows
	}
	return p
}

// Equal reports whether two Params describe comparable fingerprints.
func (p Params) Equal(o Params) bool { return p == o }

// fingerprintConfig builds the prepared MinHash config for p.
func (p Params) fingerprintConfig() *fingerprint.Config {
	return (&fingerprint.Config{K: p.K, ShingleSize: p.ShingleSize, Seed: p.Seed}).Prepare()
}

// Signature is a MinHash fingerprint that serializes as one hex string
// (8 hex digits per lane) instead of a JSON number array: ~35% smaller
// on disk and trivially diffable, which matters because summary bytes
// per function is the cost model of the whole scheme.
type Signature fingerprint.MinHash

// MinHash returns the signature as the fingerprint package's type.
func (s Signature) MinHash() fingerprint.MinHash { return fingerprint.MinHash(s) }

// MarshalJSON renders the signature as a single hex string.
func (s Signature) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, len(s)*8+2)
	buf = append(buf, '"')
	const hexDigits = "0123456789abcdef"
	for _, lane := range s {
		for shift := 28; shift >= 0; shift -= 4 {
			buf = append(buf, hexDigits[lane>>uint(shift)&0xf])
		}
	}
	buf = append(buf, '"')
	return buf, nil
}

// UnmarshalJSON parses the hex-string form.
func (s *Signature) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	if len(str)%8 != 0 {
		return fmt.Errorf("summary: signature hex length %d not a multiple of 8", len(str))
	}
	out := make(Signature, len(str)/8)
	for i := range out {
		var lane uint32
		for _, c := range []byte(str[i*8 : i*8+8]) {
			var v uint32
			switch {
			case c >= '0' && c <= '9':
				v = uint32(c - '0')
			case c >= 'a' && c <= 'f':
				v = uint32(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v = uint32(c-'A') + 10
			default:
				return fmt.Errorf("summary: bad signature hex digit %q", c)
			}
			lane = lane<<4 | v
		}
		out[i] = lane
	}
	*s = out
	return nil
}

// FuncSummary is the per-function unit of the modular analysis: enough
// to rank the function as a merge candidate from another process
// (MinHash over the stable encoding), and enough to detect at link
// time that the summarized body is no longer the body being merged
// (signature hash, sequence digest and length — see Matches).
type FuncSummary struct {
	// Name is the function's module-level symbol name; cross-module
	// linking resolves by it, so the Index rejects duplicates.
	Name string `json:"name"`

	// SigHash is the structural hash of the function's signature type
	// (fingerprint.StableTypeCode), comparable across type contexts.
	SigHash uint32 `json:"sig_hash"`

	// SeqLen is the stable-encoded instruction count.
	SeqLen int `json:"seq_len"`

	// SeqDigest is the FNV-1a 64-bit digest of the stable encoded
	// sequence: the cheap "is this still the same body" check the
	// link-time merger uses before trusting the fingerprint.
	SeqDigest uint64 `json:"seq_digest"`

	// MinHash is the stable MinHash fingerprint, the ranking input.
	MinHash Signature `json:"minhash"`

	// Callees lists, sorted and deduplicated, the names of functions
	// this definition calls directly (from analysis.Manager's call
	// graph). The planner uses it to surface call-graph locality;
	// cross-module consumers get linkage facts without parsing bodies.
	Callees []string `json:"callees,omitempty"`

	// AddressTaken marks functions referenced outside a callee slot in
	// their home module; merging such a function still works (the
	// thunk preserves identity), but consumers doing whole-program
	// reasoning need the fact.
	AddressTaken bool `json:"address_taken,omitempty"`

	// Variadic marks signatures the merger refuses; the planner skips
	// them without needing the body.
	Variadic bool `json:"variadic,omitempty"`
}

// ModuleSummary is one translation unit's worth of function summaries
// plus the module-level linkage facts and the parameters everything
// was computed under.
type ModuleSummary struct {
	// Version is the format version; always first so `head -1` of an
	// encoded file shows it.
	Version string `json:"version"`

	// Module is the source module's name.
	Module string `json:"module"`

	// Source optionally records where the module's IR lives, so a
	// link-time driver can load bodies for the optimistic merge.
	Source string `json:"source,omitempty"`

	// Params are the fingerprint/LSH parameters of every summary.
	Params Params `json:"params"`

	// NumFuncs counts the summarized definitions.
	NumFuncs int `json:"num_funcs"`

	// Externs lists, sorted, the names the module declares but does
	// not define — its import surface, resolved at link time.
	Externs []string `json:"externs,omitempty"`

	// Funcs holds one summary per non-variadic definition, in module
	// order.
	Funcs []*FuncSummary `json:"funcs"`
}

// seqDigest folds the stable encoded sequence into a 64-bit FNV-1a
// digest.
func seqDigest(seq []fingerprint.Encoded) uint64 {
	h := uint64(fnvOffset64)
	for _, e := range seq {
		v := uint32(e)
		for i := 0; i < 4; i++ {
			h ^= uint64(v & 0xff)
			h *= fnvPrime64
			v >>= 8
		}
	}
	return h
}

// Histogram bounds for summary.bytes_per_func: summaries are ~2KB with
// the default k=200, so powers of two around that.
var bytesPerFuncBounds = []float64{256, 512, 1024, 2048, 4096, 8192}

// Extract summarizes every function definition of m under params p
// (zero fields take defaults). The analysis is modular: it reads only
// m. A nil Manager gets a fresh one; passing a shared Manager lets a
// driver reuse cached call graphs. Metrics (nil-safe): the
// summary.extracted counter and the summary.bytes_per_func histogram,
// which tracks the serialized size of each function summary — the
// shipping cost of the distributed story.
func Extract(m *ir.Module, p Params, mgr *analysis.Manager, mx *obs.Metrics) *ModuleSummary {
	p = p.withDefaults()
	if mgr == nil {
		mgr = analysis.NewManager()
	}
	cg := mgr.CallGraphOf(m)
	cfg := p.fingerprintConfig()

	ms := &ModuleSummary{
		Version: Version,
		Module:  m.Name,
		Params:  p,
	}
	bytesHist := mx.Histogram("summary.bytes_per_func", bytesPerFuncBounds)
	extracted := mx.Counter("summary.extracted")
	for _, f := range m.Funcs {
		if f.IsDecl() {
			ms.Externs = append(ms.Externs, f.Name())
			continue
		}
		seq := fingerprint.EncodeFuncStable(f)
		fs := &FuncSummary{
			Name:         f.Name(),
			SigHash:      fingerprint.StableTypeCode(f.Sig),
			SeqLen:       len(seq),
			SeqDigest:    seqDigest(seq),
			MinHash:      Signature(cfg.New(seq)),
			AddressTaken: cg.AddressTaken[f],
			Variadic:     f.Sig.Variadic,
		}
		for _, callee := range cg.Callees[f] {
			fs.Callees = append(fs.Callees, callee.Name())
		}
		sort.Strings(fs.Callees)
		ms.Funcs = append(ms.Funcs, fs)
		ms.NumFuncs++
		extracted.Inc()
		if bytesHist != nil {
			if b, err := json.Marshal(fs); err == nil {
				bytesHist.Observe(float64(len(b)))
			}
		}
	}
	sort.Strings(ms.Externs)
	return ms
}

// Matches reports whether f is still the body this summary was
// extracted from: same structural signature, same stable-encoded
// length and digest. This is the optimism check the link-time merger
// runs before trusting a summary — a false return means the summary is
// stale (or a digest collision paired two different bodies) and the
// planned merge must be skipped.
func (s *FuncSummary) Matches(f *ir.Function) bool {
	if f == nil || f.IsDecl() {
		return false
	}
	if fingerprint.StableTypeCode(f.Sig) != s.SigHash {
		return false
	}
	seq := fingerprint.EncodeFuncStable(f)
	return len(seq) == s.SeqLen && seqDigest(seq) == s.SeqDigest
}

// Encode renders the summary as deterministic, versioned, indented
// JSON (stable field order, trailing newline) — the on-disk `.sum`
// format of `f3m summary` and the wire format of `GET /v1/summaries`.
func (ms *ModuleSummary) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses an encoded summary, rejecting unknown versions.
func Decode(data []byte) (*ModuleSummary, error) {
	var ms ModuleSummary
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("summary: decode: %w", err)
	}
	if ms.Version != Version {
		return nil, fmt.Errorf("summary: version %q not supported (want %q)", ms.Version, Version)
	}
	if p := ms.Params.withDefaults(); p.Rows <= 0 || p.Bands <= 0 {
		return nil, fmt.Errorf("summary: params %+v leave no LSH band", ms.Params)
	}
	for i, fs := range ms.Funcs {
		if fs == nil {
			return nil, fmt.Errorf("summary: function %d is null", i)
		}
		if len(fs.MinHash) != ms.Params.K {
			return nil, fmt.Errorf("summary: function %s: fingerprint has %d lanes, params say k=%d",
				fs.Name, len(fs.MinHash), ms.Params.K)
		}
	}
	return &ms, nil
}
