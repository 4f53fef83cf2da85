package serve

import (
	"container/heap"
	"sort"
	"sync"

	"f3m/internal/fingerprint"
	"f3m/internal/ir"
	"f3m/internal/lsh"
)

// StoreConfig fixes the fingerprint/banding parameters shared by every
// function the store will ever hold (fingerprints from different
// parameter sets are not comparable, so these are immutable for the
// store's lifetime). Snapshots do not record them: a restore
// re-fingerprints every module under the restoring store's own
// configuration.
type StoreConfig struct {
	// K is the MinHash fingerprint size (0 = 200, the paper default).
	K int

	// ShingleSize is the encoding window (0 = 2).
	ShingleSize int

	// Seed selects the MinHash hash family (0 = the pipeline default).
	Seed uint64

	// Rows and Bands are the LSH banding shape (0 = r=2, b=K/r).
	Rows, Bands int

	// BucketCap caps per-bucket comparisons per query; 0 = the LSH
	// default, negative = unlimited.
	BucketCap int
}

// withDefaults resolves zero fields to their defaults.
func (c StoreConfig) withDefaults() StoreConfig {
	if c.K == 0 {
		c.K = 200
	}
	if c.ShingleSize == 0 {
		c.ShingleSize = 2
	}
	if c.Seed == 0 {
		c.Seed = 0xF3F3F3F3
	}
	if c.Rows == 0 {
		c.Rows = 2
	}
	if c.Bands == 0 {
		c.Bands = c.K / c.Rows
	}
	return c
}

// FuncRecord is one indexed function: its id (also its LSH id), owning
// module, function name and MinHash signature (over the stable
// encoding). An id names the record only while it is live: the store
// gives a removed record's id to a later insert.
type FuncRecord struct {
	ID           int64
	Module, Func string
	Sig          fingerprint.MinHash
}

// Match is one query result.
type Match struct {
	// Module and Func name the matching indexed function.
	Module string `json:"module"`
	Func   string `json:"func"`

	// Similarity is the MinHash Jaccard estimate against the probe.
	Similarity float64 `json:"similarity"`
}

// StoreStats is a point-in-time view of the store.
type StoreStats struct {
	// Funcs is the number of live indexed functions.
	Funcs int

	// Epoch is the mutation counter (see Store.Epoch).
	Epoch uint64

	// LSH holds the index counters.
	LSH lsh.IndexStats
}

// Store is the concurrently readable similarity store: the long-lived
// "LSH database" the serving layer exposes. It is one lsh.Index plus
// the records inserted into it, keyed by id, behind one RWMutex, so
// every query sees one bucket cap per bucket exactly as the pipeline's
// ranking does. Ids double as LSH ids. A removed record's id is reused,
// lowest first, before a new one is allocated, so the ids in use stay
// within the peak live-function count and the index's id-indexed
// tables stop growing under submit/remove churn.
//
// Concurrency contract: Insert and Remove hold mu exclusively; Query
// and Stats hold it shared and read the index only through
// lsh.PeekCandidates, which is documented safe for any number of
// concurrent calls while no mutation runs. Every read therefore sees a
// consistent store.
type Store struct {
	cfg StoreConfig
	mh  *fingerprint.Config

	mu     sync.RWMutex
	ix     *lsh.Index
	recs   map[int64]*FuncRecord
	free   idHeap
	nextID int64
	epoch  uint64
}

// idHeap is a min-heap of the ids freed by Remove.
type idHeap []int64

func (h idHeap) Len() int           { return len(h) }
func (h idHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h idHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *idHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *idHeap) Pop() any {
	old := *h
	id := old[len(old)-1]
	*h = old[:len(old)-1]
	return id
}

// NewStore returns an empty store with the given configuration
// (zero fields resolve to defaults).
func NewStore(cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:  cfg,
		mh:   (&fingerprint.Config{K: cfg.K, ShingleSize: cfg.ShingleSize, Seed: cfg.Seed}).Prepare(),
		ix:   lsh.NewIndex(lsh.Params{Rows: cfg.Rows, Bands: cfg.Bands, BucketCap: cfg.BucketCap}),
		recs: make(map[int64]*FuncRecord),
	}
}

// Config returns the resolved store configuration.
func (s *Store) Config() StoreConfig { return s.cfg }

// Fingerprint computes f's MinHash signature over the stable
// (context-independent) instruction encoding. Pure; needs no lock.
func (s *Store) Fingerprint(f *ir.Function) fingerprint.MinHash {
	return s.mh.New(fingerprint.EncodeFuncStable(f))
}

// Insert indexes sig under the lowest free id and returns the record.
// Safe for concurrent use.
func (s *Store) Insert(module, fn string, sig fingerprint.MinHash) *FuncRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := &FuncRecord{ID: s.nextID, Module: module, Func: fn, Sig: sig}
	if len(s.free) > 0 {
		rec.ID = heap.Pop(&s.free).(int64)
	} else {
		s.nextID++
	}
	s.ix.Insert(int(rec.ID), sig)
	s.recs[rec.ID] = rec
	s.epoch++
	return rec
}

// Remove unindexes a record this store returned from Insert. Safe for
// concurrent use; removing a record twice, or a record of another
// store (one replaced by a restore), is a no-op.
func (s *Store) Remove(rec *FuncRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recs[rec.ID] == rec {
		s.ix.Remove(int(rec.ID), rec.Sig)
		delete(s.recs, rec.ID)
		heap.Push(&s.free, rec.ID)
	}
	s.epoch++
}

// Query returns up to k indexed functions whose signature shares at
// least one LSH bucket with sig and whose similarity reaches minSim,
// ordered by similarity (descending) with ties broken by module then
// function name, so results do not depend on insertion order.
// exclude removes one record (typically the probe itself) from the
// results if it is still live; nil excludes nothing. k <= 0 means
// unlimited. Safe for any number of concurrent callers.
func (s *Store) Query(sig fingerprint.MinHash, minSim float64, k int, exclude *FuncRecord) []Match {
	s.mu.RLock()
	// A removed record's id may already belong to another record, so
	// the exclusion is resolved under the lock.
	excludeID := -1
	if exclude != nil && s.recs[exclude.ID] == exclude {
		excludeID = int(exclude.ID)
	}
	// Unlimited here: the k cut happens after the name-ordered sort.
	cands := s.ix.PeekCandidates(excludeID, sig, minSim, nil, 0)
	out := make([]Match, len(cands))
	for i, c := range cands {
		rec := s.recs[int64(c.ID)]
		out[i] = Match{Module: rec.Module, Func: rec.Func, Similarity: c.Similarity}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Similarity != b.Similarity {
			return a.Similarity > b.Similarity
		}
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		return a.Func < b.Func
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Epoch returns the store's mutation counter: it increments on every
// insert and removal, so two equal epochs observed around a read prove
// the read saw a quiescent store.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Stats returns the live-function count, the epoch and the LSH
// counters, all read under one lock.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StoreStats{Funcs: len(s.recs), Epoch: s.epoch, LSH: s.ix.Stats()}
}
