package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"f3m/internal/core"
	"f3m/internal/fingerprint"
	"f3m/internal/ir"
	"f3m/internal/obs"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrModuleExists rejects a submission under an already-live name.
	ErrModuleExists = errors.New("serve: module already submitted (remove it first)")

	// ErrNotFound marks lookups of modules or functions the server
	// does not hold.
	ErrNotFound = errors.New("serve: not found")

	// ErrNoModules rejects a merge of an empty corpus.
	ErrNoModules = errors.New("serve: no modules submitted")

	// ErrClosed rejects requests once graceful shutdown has begun.
	ErrClosed = errors.New("serve: server is shutting down")
)

// Config parameterizes a Server.
type Config struct {
	// Store shapes the similarity store (fingerprint and banding
	// parameters).
	Store StoreConfig

	// Strategy, Threshold, K, Workers and Check are the pipeline
	// parameters applied by every Merge, exactly as the equivalent
	// one-shot core.Config would be built by cmd/f3m.
	Strategy  core.Strategy
	Threshold float64
	K         int
	Workers   int
	Check     core.CheckMode

	// SnapshotPath is the default snapshot file used by the snapshot
	// and restore endpoints when the request does not name one.
	SnapshotPath string

	// EnableShutdown allows the POST /v1/shutdown endpoint. The CLI
	// daemon enables it; embedded test servers may prefer to disable
	// remote shutdown and call Close directly.
	EnableShutdown bool

	// Metrics receives request- and merge-level counters; nil disables
	// metric collection (NewServer does not allocate a registry on its
	// own, mirroring core.Config).
	Metrics *obs.Metrics

	// Tracer, when set, records one span per request plus the pipeline
	// spans of each merge.
	Tracer *obs.Tracer
}

// DefaultConfig returns the serving defaults: F3M-static ranking with
// the strategy-default threshold, sequential pipeline stages, checks
// off, shutdown endpoint enabled.
func DefaultConfig() Config {
	return Config{Strategy: core.F3MStatic, Threshold: -1, EnableShutdown: true}
}

// moduleEntry is one live submission: the canonical printed source the
// merge stage re-parses from, plus the store records of its indexed
// functions.
type moduleEntry struct {
	name string
	src  string
	cost int
	recs []*FuncRecord

	// seq is the module's submission position, the order snapshots
	// replay modules in (store ids are reused, so they do not record
	// it).
	seq uint64
}

// ModuleInfo describes one live module to API clients.
type ModuleInfo struct {
	// Name is the submission name (unique across live modules).
	Name string `json:"name"`

	// Funcs lists the indexed (mergeable) function names in module
	// order.
	Funcs []string `json:"funcs"`

	// SizeCost is the size-model cost of the module (core.ModuleCost).
	SizeCost int `json:"size_cost"`
}

// MergeSummary is the schedule-independent result of one Merge, as
// returned by the merge and report endpoints.
type MergeSummary struct {
	// Epoch is the store epoch the merged corpus was snapshotted at.
	Epoch uint64 `json:"epoch"`

	// Modules and NumFuncs size the merged corpus.
	Modules  int `json:"modules"`
	NumFuncs int `json:"num_funcs"`

	// Strategy echoes the ranking strategy name.
	Strategy string `json:"strategy"`

	// Attempts and Merges count ranked pairs and committed merges.
	Attempts int `json:"attempts"`
	Merges   int `json:"merges"`

	// SizeBefore/SizeAfter/Reduction are the size-model outcome.
	SizeBefore int     `json:"size_before"`
	SizeAfter  int     `json:"size_after"`
	Reduction  float64 `json:"reduction"`

	// Threshold, K and Bands record the effective parameters.
	Threshold float64 `json:"threshold"`
	K         int     `json:"k"`
	Bands     int     `json:"bands"`

	// Diagnostics counts findings of the configured check mode.
	Diagnostics int `json:"diagnostics"`

	// ReportKey is the SHA-256 of the canonical report rendering
	// (CanonicalReport): two merges over the same module set produce
	// the same key, whatever the worker counts or traffic history —
	// the service's byte-identity contract with the one-shot pipeline.
	ReportKey string `json:"report_key"`
}

// PairInfo is one ranked pair of the last merge report.
type PairInfo struct {
	// A and B name the pair (B empty when ranking found no candidate).
	A string `json:"a"`
	B string `json:"b,omitempty"`

	// Similarity is the fingerprint similarity of the pair.
	Similarity float64 `json:"similarity"`

	// Attempted and Profitable record the funnel outcome.
	Attempted  bool `json:"attempted"`
	Profitable bool `json:"profitable"`

	// Saving is the committed size-model saving (0 unless profitable).
	Saving int `json:"saving"`
}

// Server is the merge-as-a-service daemon state: the similarity store,
// the live module registry, the last merge result and the lifecycle
// flags. All exported methods are safe for concurrent use.
type Server struct {
	cfg Config
	mx  *obs.Metrics

	// store is swapped wholesale by Restore; loads are atomic so
	// queries racing a restore see either the old or the new index,
	// never a torn one.
	store atomic.Pointer[Store]

	mu      sync.RWMutex
	modules map[string]*moduleEntry
	nextSeq uint64 // next moduleEntry.seq, guarded by mu

	// mergeMu serializes merges (one authoritative merge at a time;
	// queries and submissions proceed concurrently).
	mergeMu sync.Mutex

	// last merge state, guarded by mu.
	lastSummary *MergeSummary
	lastPairs   []PairInfo
	lastDiags   string
	lastMerged  string

	merges atomic.Int64

	closed   atomic.Bool
	inflight sync.WaitGroup

	shutdownOnce sync.Once
	shutdownCh   chan struct{}
}

// NewServer returns a ready (not yet listening) server.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:        cfg,
		mx:         cfg.Metrics,
		modules:    make(map[string]*moduleEntry),
		shutdownCh: make(chan struct{}),
	}
	s.store.Store(NewStore(cfg.Store))
	return s
}

// Store exposes the underlying similarity store (read-mostly; used by
// tests and embedders). The pointer is only replaced by Restore, so
// callers may hold it across several reads at the cost of possibly
// observing pre-restore state.
func (s *Server) Store() *Store { return s.store.Load() }

// ShutdownRequested is closed when a client calls the shutdown
// endpoint; the daemon loop selects on it next to OS signals.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdownCh }

// requestShutdown trips ShutdownRequested (idempotent).
func (s *Server) requestShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
}

// Close begins graceful shutdown: new requests are refused with 503
// while every in-flight request — including a running merge — drains.
// Returns ctx.Err if draining outlives the context.
func (s *Server) Close(ctx context.Context) error {
	s.closed.Store(true)
	s.requestShutdown()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// begin registers an in-flight request, refusing once shutdown began.
// Callers must pair a nil error with a deferred s.inflight.Done().
func (s *Server) begin() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.inflight.Add(1)
	// Re-check after registering so a concurrent Close cannot miss us:
	// either it saw our Add and waits, or we see closed and back out.
	if s.closed.Load() {
		s.inflight.Done()
		return ErrClosed
	}
	return nil
}

// mergeable mirrors the pipeline's candidate filter: definitions only,
// no variadics.
func mergeable(f *ir.Function) bool {
	return !f.IsDecl() && !f.Sig.Variadic
}

// ingested is one module after the steps SubmitModule and Restore
// share: its registry entry (canonical source and size cost, no
// records yet) plus the names and signatures of its mergeable
// functions, in module order.
type ingested struct {
	entry *moduleEntry
	funcs []string
	sigs  []fingerprint.MinHash
}

// ingest parses, verifies and canonicalizes src and fingerprints its
// mergeable functions under st's configuration. Pure function work: it
// takes no lock and changes no state.
func ingest(st *Store, name, src string) (*ingested, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty module name")
	}
	mod, err := ir.ParseModule(src)
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyModule(mod); err != nil {
		return nil, err
	}
	// Canonical source: the merge stage re-parses this, and snapshots
	// record it, so formatting quirks of the submitted text never leak
	// into downstream state.
	in := &ingested{entry: &moduleEntry{name: name, src: ir.ModuleString(mod), cost: core.ModuleCost(mod)}}
	for _, f := range mod.Funcs {
		if mergeable(f) {
			in.funcs = append(in.funcs, f.Name())
			in.sigs = append(in.sigs, st.Fingerprint(f))
		}
	}
	return in, nil
}

// index inserts the ingested functions into st, in module order, and
// returns the completed registry entry with submission position seq.
// Callers serialize it with other registry writes, so submission
// positions and store inserts happen in the same order.
func (in *ingested) index(st *Store, seq uint64) *moduleEntry {
	in.entry.seq = seq
	for i, fn := range in.funcs {
		in.entry.recs = append(in.entry.recs, st.Insert(in.entry.name, fn, in.sigs[i]))
	}
	return in.entry
}

// SubmitModule parses, verifies, canonicalizes and indexes a module
// under the given name. The returned info lists the indexed functions.
// Fails with ErrModuleExists when the name is live.
func (s *Server) SubmitModule(name, src string) (ModuleInfo, error) {
	in, err := ingest(s.Store(), name, src)
	if err != nil {
		return ModuleInfo{}, err
	}

	s.mu.Lock()
	if _, dup := s.modules[name]; dup {
		s.mu.Unlock()
		return ModuleInfo{}, ErrModuleExists
	}
	entry := in.index(s.Store(), s.nextSeq)
	s.nextSeq++
	s.modules[name] = entry
	nmod := len(s.modules)
	s.mu.Unlock()

	s.mx.Counter("serve.modules_submitted").Inc()
	s.mx.Counter("serve.funcs_indexed").Add(int64(len(entry.recs)))
	s.mx.Gauge("serve.modules").Set(float64(nmod))
	s.publishFuncGauge()
	return ModuleInfo{Name: name, Funcs: in.funcs, SizeCost: entry.cost}, nil
}

// RemoveModule unindexes every function of the named module and drops
// it from the registry.
func (s *Server) RemoveModule(name string) error {
	s.mu.Lock()
	entry, ok := s.modules[name]
	if ok {
		delete(s.modules, name)
	}
	nmod := len(s.modules)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: module %q", ErrNotFound, name)
	}
	for _, rec := range entry.recs {
		s.Store().Remove(rec)
	}
	s.mx.Counter("serve.modules_removed").Inc()
	s.mx.Gauge("serve.modules").Set(float64(nmod))
	s.publishFuncGauge()
	return nil
}

// publishFuncGauge refreshes the indexed-function gauge.
func (s *Server) publishFuncGauge() {
	if s.mx == nil {
		return
	}
	s.mx.Gauge("serve.funcs").Set(float64(s.Store().Stats().Funcs))
}

// Modules lists the live modules sorted by name.
func (s *Server) Modules() []ModuleInfo {
	s.mu.RLock()
	out := make([]ModuleInfo, 0, len(s.modules))
	for _, e := range s.modules { // lintmap:ignore collected then sorted by name below
		out = append(out, s.infoLocked(e))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// infoLocked renders one entry (caller holds mu).
func (s *Server) infoLocked(e *moduleEntry) ModuleInfo {
	info := ModuleInfo{Name: e.name, SizeCost: e.cost}
	for _, r := range e.recs {
		info.Funcs = append(info.Funcs, r.Func)
	}
	return info
}

// Module returns one live module's info.
func (s *Server) Module(name string) (ModuleInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.modules[name]
	if !ok {
		return ModuleInfo{}, fmt.Errorf("%w: module %q", ErrNotFound, name)
	}
	return s.infoLocked(e), nil
}

// QueryStored finds near-duplicates of an already-indexed function,
// excluding the function itself.
func (s *Server) QueryStored(module, fn string, minSim float64, k int) ([]Match, error) {
	s.mu.RLock()
	// Load the store under the registry lock: Restore swaps both under
	// it, so rec is a record of this store.
	st := s.Store()
	e, ok := s.modules[module]
	var rec *FuncRecord
	if ok {
		for _, r := range e.recs {
			if r.Func == fn {
				rec = r
				break
			}
		}
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: module %q", ErrNotFound, module)
	}
	if rec == nil {
		return nil, fmt.Errorf("%w: function %q in module %q", ErrNotFound, fn, module)
	}
	return st.Query(rec.Sig, minSim, k, rec), nil
}

// QueryIR finds near-duplicates of a function inside a submitted-inline
// module text that is never stored: the probe is parsed, verified,
// fingerprinted with the same stable encoding, and matched against the
// live index. fn selects the probe function; empty fn is allowed when
// the module defines exactly one mergeable function.
func (s *Server) QueryIR(src, fn string, minSim float64, k int) ([]Match, error) {
	mod, err := ir.ParseModule(src)
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyModule(mod); err != nil {
		return nil, err
	}
	var probe *ir.Function
	if fn == "" {
		for _, f := range mod.Funcs {
			if !mergeable(f) {
				continue
			}
			if probe != nil {
				return nil, fmt.Errorf("serve: module defines several functions; name one with \"func\"")
			}
			probe = f
		}
	} else {
		probe = mod.Func(fn)
	}
	if probe == nil || !mergeable(probe) {
		return nil, fmt.Errorf("%w: no mergeable probe function %q", ErrNotFound, fn)
	}
	return s.Store().Query(s.Store().Fingerprint(probe), minSim, k, nil), nil
}

// Merge links a name-ordered snapshot of the live modules and runs the
// configured merging pipeline over it, exactly as a one-shot `f3m` run
// over the same files would. Each merge starts from the module texts
// alone and carries nothing over from earlier merges, so a repeat
// merge costs what the first did, and the summary's ReportKey — and
// the underlying report — is byte-identical to the one-shot pipeline
// regardless of service history.
func (s *Server) Merge() (MergeSummary, error) {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()

	// Snapshot the corpus in deterministic (name) order. Entries are
	// immutable once submitted, so only the map read needs the lock.
	s.mu.RLock()
	epoch := s.Store().Epoch()
	names := make([]string, 0, len(s.modules))
	for n := range s.modules { // lintmap:ignore collected then sorted just below
		names = append(names, n)
	}
	sort.Strings(names)
	srcs := make([]string, len(names))
	for i, n := range names {
		srcs[i] = s.modules[n].src
	}
	s.mu.RUnlock()
	if len(srcs) == 0 {
		return MergeSummary{}, ErrNoModules
	}

	// Re-parse every module fresh so type-context state from earlier
	// merges can never leak into instruction encodings (dense type IDs
	// follow interning order; a fresh parse per merge pins them to the
	// module texts alone — the same IDs the one-shot run assigns).
	mods := make([]*ir.Module, len(srcs))
	for i, src := range srcs {
		m, err := ir.ParseModule(src)
		if err != nil {
			return MergeSummary{}, fmt.Errorf("serve: reparse %s: %w", names[i], err)
		}
		mods[i] = m
	}
	linked, err := ir.LinkModules("service", mods...)
	if err != nil {
		return MergeSummary{}, fmt.Errorf("serve: link: %w", err)
	}

	cfg := core.DefaultConfig(s.cfg.Strategy)
	// A zero Threshold in a hand-built Config means "strategy default"
	// (matching DefaultConfig); an explicit 0 threshold is spelled -1
	// resolving to 0 under F3M-static anyway.
	cfg.Threshold = s.cfg.Threshold
	if s.cfg.Threshold == 0 {
		cfg.Threshold = -1
	}
	cfg.K = s.cfg.K
	cfg.Workers = s.cfg.Workers
	cfg.Check = s.cfg.Check
	cfg.Metrics = s.mx
	cfg.Tracer = s.cfg.Tracer

	rep, err := core.Run(linked, cfg)
	if err != nil {
		return MergeSummary{}, err
	}
	if err := ir.VerifyModule(linked); err != nil {
		return MergeSummary{}, fmt.Errorf("serve: merged module invalid: %w", err)
	}

	canon := CanonicalReport(rep)
	sum := sha256.Sum256([]byte(canon))
	summary := MergeSummary{
		Epoch:       epoch,
		Modules:     len(srcs),
		NumFuncs:    rep.NumFuncs,
		Strategy:    rep.Strategy.String(),
		Attempts:    rep.Attempts,
		Merges:      rep.Merges,
		SizeBefore:  rep.SizeBefore,
		SizeAfter:   rep.SizeAfter,
		Reduction:   rep.Reduction(),
		Threshold:   rep.Threshold,
		K:           rep.K,
		Bands:       rep.Bands,
		Diagnostics: len(rep.Diagnostics),
		ReportKey:   hex.EncodeToString(sum[:]),
	}
	pairs := make([]PairInfo, 0, len(rep.Pairs))
	for _, p := range rep.Pairs {
		pairs = append(pairs, PairInfo{
			A: p.A, B: p.B, Similarity: p.Similarity,
			Attempted: p.Attempted, Profitable: p.Profitable, Saving: p.Saving,
		})
	}
	var diags strings.Builder
	if len(rep.Diagnostics) > 0 {
		_ = rep.Diagnostics.Render(&diags)
	}

	s.mu.Lock()
	s.lastSummary = &summary
	s.lastPairs = pairs
	s.lastDiags = diags.String()
	s.lastMerged = ir.ModuleString(linked)
	s.mu.Unlock()

	s.merges.Add(1)
	s.mx.Counter("serve.merges").Inc()
	return summary, nil
}

// LastMerge returns the most recent merge summary, its pair log and
// the rendered diagnostics; ok is false before the first merge.
func (s *Server) LastMerge() (sum MergeSummary, pairs []PairInfo, diags string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.lastSummary == nil {
		return MergeSummary{}, nil, "", false
	}
	return *s.lastSummary, s.lastPairs, s.lastDiags, true
}

// MergedIR returns the textual IR of the last merged module; ok is
// false before the first merge.
func (s *Server) MergedIR() (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastMerged, s.lastMerged != ""
}

// Health is the healthz payload.
type Health struct {
	// Status is "ok" while the server accepts requests.
	Status string `json:"status"`

	// Modules and Funcs count live state; Epoch is the store epoch and
	// Merges the number of completed merges.
	Modules int    `json:"modules"`
	Funcs   int    `json:"funcs"`
	Epoch   uint64 `json:"epoch"`
	Merges  int64  `json:"merges"`
}

// Healthz reports liveness and coarse state counters.
func (s *Server) Healthz() Health {
	s.mu.RLock()
	nmod := len(s.modules)
	s.mu.RUnlock()
	st := s.Store().Stats()
	return Health{
		Status:  "ok",
		Modules: nmod,
		Funcs:   st.Funcs,
		Epoch:   st.Epoch,
		Merges:  s.merges.Load(),
	}
}

// CanonicalReport renders every schedule-independent field of a report
// — strategy, corpus size, funnel totals, effective parameters, LSH
// counters, the full pair log and the canonically rendered diagnostics
// — into one string. Wall clocks are excluded. Two runs over the same
// module set must render identically for any Workers setting and any service history; the load tests and the smoke gate
// hold the service to exactly this.
func CanonicalReport(rep *core.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy=%v funcs=%d attempts=%d merges=%d size=%d->%d\n",
		rep.Strategy, rep.NumFuncs, rep.Attempts, rep.Merges, rep.SizeBefore, rep.SizeAfter)
	fmt.Fprintf(&sb, "t=%v b=%d k=%d lsh=%+v\n", rep.Threshold, rep.Bands, rep.K, rep.LSHStats)
	for _, p := range rep.Pairs {
		fmt.Fprintf(&sb, "pair %s + %s sim=%v attempted=%v profitable=%v saving=%d\n",
			p.A, p.B, p.Similarity, p.Attempted, p.Profitable, p.Saving)
	}
	_ = rep.Diagnostics.Render(&sb)
	return sb.String()
}
