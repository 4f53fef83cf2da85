package align

import (
	"sync"
	"sync/atomic"

	"f3m/internal/fingerprint"
)

// Cache memoizes Needleman–Wunsch alignments across the merge stage,
// so a sequence pair is aligned at most once per run no matter how
// often ranking revisits it.
//
// Correctness is unconditional, not probabilistic. Sequences are
// interned (collision-checked by full comparison, see
// fingerprint.Interner) and the cache is keyed on the pair of interned
// handle ids — two 32-bit integers — so a lookup no longer copies both
// sequences into a fresh string. The pair is stored under its canonical
// (smaller handle id first) orientation, with separate value slots for
// the forward and swapped directions, because an optimal alignment of
// (a,b) is not in general the mirror of an optimal alignment of (b,a)
// under the tie-break order. Which orientation is canonical can differ
// between runs (intern order is first-come), but the *entries served*
// are a pure function of the queried sequences, so Reports stay
// byte-identical; only hit/miss accounting is schedule-dependent, and
// those counters are exported as volatile metrics.
//
// Returned slices are shared: callers must treat them as read-only.
// Every hit is re-validated against the querying sequences before it
// is served (see validEntries); an entry that does not describe a
// legal alignment of exactly those sequences — which would require an
// interner malfunction or a stale handle surviving an interner reset —
// is rejected, counted, and recomputed. All methods are safe for
// concurrent use; a nil *Cache disables caching and computes directly.
type Cache struct {
	mu       sync.Mutex
	entries  map[pairID]*cacheEntry
	interner *fingerprint.Interner
	max      int

	hits, misses, rejects, evictions atomic.Int64

	// corruptNext, when positive, makes the next lookups fabricate a
	// wrong cached value instead of consulting the map — the seeded
	// "cache collision" fault used by tests to prove the validation
	// and downstream re-verification layers hold. See
	// CorruptNextForTest.
	corruptNext    atomic.Int32
	corruptIllForm bool
}

// pairID is the cache key: the interned handle ids of the canonical
// pair orientation (lo <= hi).
type pairID struct {
	lo, hi uint32
}

// cacheEntry holds the two directional alignments of one canonical
// sequence pair. The has flags disambiguate "computed, empty
// alignment" from "not computed".
type cacheEntry struct {
	fwd, rev       []Entry
	hasFwd, hasRev bool
}

// DefaultCacheEntries is the entry cap NewCache applies when given a
// non-positive size.
const DefaultCacheEntries = 1 << 14

// NewCache returns an empty cache holding at most max entries; when
// the cap is reached the cache is cleared wholesale (generation-style
// eviction — cheap, and eviction only ever costs recomputation). The
// interner is sized to the same cap: a pair key needs at most two
// fresh sequences.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{
		entries:  make(map[pairID]*cacheEntry),
		interner: fingerprint.NewInterner(2 * max),
		max:      max,
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Rejects, Evictions int64
	Entries                          int
}

// Stats reads the counters; all-zero on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Rejects:   c.rejects.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// CorruptNextForTest arms the seeded-fault hook: the next n NW lookups
// return a fabricated cached value instead of a real one. With
// illFormed set the fabrication is structurally broken (it cannot
// describe any alignment) and must be caught by validation; otherwise
// it is a legal but deliberately unhelpful all-gap alignment that
// passes validation, exercising the merger's downstream
// re-verification instead.
func (c *Cache) CorruptNextForTest(n int, illFormed bool) {
	c.corruptIllForm = illFormed
	c.corruptNext.Store(int32(n))
}

// NW returns the Needleman–Wunsch alignment of a and b, serving a
// shared cached slice when the pair (in either order) was aligned
// before. On a nil cache it simply computes. The hit path performs no
// allocations: interning both sequences and probing the map are
// allocation-free.
func (c *Cache) NW(a, b []fingerprint.Encoded) []Entry {
	if c == nil {
		return NeedlemanWunsch(a, b)
	}
	sa := c.interner.Intern(a)
	sb := c.interner.Intern(b)
	swapped := sb.ID() < sa.ID()
	key := pairID{lo: sa.ID(), hi: sb.ID()}
	if swapped {
		key.lo, key.hi = key.hi, key.lo
	}

	got, ok := c.lookup(key, swapped)
	if n := c.corruptNext.Load(); n > 0 && c.corruptNext.CompareAndSwap(n, n-1) {
		got, ok = fabricateWrong(a, b, c.corruptIllForm), true
	}
	if ok {
		if validEntries(got, a, b) {
			c.hits.Add(1)
			return got
		}
		// A cached value that is not an alignment of these sequences:
		// reject it, recompute, and overwrite the poisoned slot.
		c.rejects.Add(1)
	} else {
		c.misses.Add(1)
	}

	out := NeedlemanWunsch(a, b)
	c.store(key, swapped, out)
	return out
}

func (c *Cache) lookup(key pairID, swapped bool) ([]Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil, false
	}
	if swapped {
		return e.rev, e.hasRev
	}
	return e.fwd, e.hasFwd
}

func (c *Cache) store(key pairID, swapped bool, val []Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		if len(c.entries) >= c.max {
			c.entries = make(map[pairID]*cacheEntry)
			c.evictions.Add(1)
		}
		e = &cacheEntry{}
		c.entries[key] = e
	}
	if swapped {
		e.rev, e.hasRev = val, true
	} else {
		e.fwd, e.hasFwd = val, true
	}
}

// validEntries checks that es is a legal global alignment of exactly a
// and b: both index sets covered completely and in order, and matched
// columns only on equal encodings. O(len) — trivial next to the DP it
// guards.
func validEntries(es []Entry, a, b []fingerprint.Encoded) bool {
	ia, ib := 0, 0
	for _, e := range es {
		switch {
		case e.A == ia && e.B == ib && ia < len(a) && ib < len(b) && a[ia] == b[ib]:
			ia++
			ib++
		case e.A == ia && e.B == -1 && ia < len(a):
			ia++
		case e.A == -1 && e.B == ib && ib < len(b):
			ib++
		default:
			return false
		}
	}
	return ia == len(a) && ib == len(b)
}

// fabricateWrong builds the seeded-fault payloads: a structurally
// impossible entry list (illFormed), or the legal-but-suboptimal
// all-gap alignment.
func fabricateWrong(a, b []fingerprint.Encoded, illFormed bool) []Entry {
	if illFormed {
		return []Entry{{A: -1, B: -1}}
	}
	out := make([]Entry, 0, len(a)+len(b))
	for i := range a {
		out = append(out, Entry{A: i, B: -1})
	}
	for j := range b {
		out = append(out, Entry{A: -1, B: j})
	}
	return out
}
