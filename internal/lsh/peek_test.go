package lsh

import (
	"math/rand"
	"sync"
	"testing"

	"f3m/internal/fingerprint"
)

// peekFixture builds an index over a clone-rich random population and
// returns it with the inserted signatures.
func peekFixture(seed int64, n int) (*Index, []fingerprint.MinHash) {
	rng := rand.New(rand.NewSource(seed))
	cfg := fingerprint.DefaultConfig()
	var sigs []fingerprint.MinHash
	for i := 0; i < n/2; i++ {
		base := randSeq(rng, 80+rng.Intn(60), 64)
		sigs = append(sigs, cfg.New(base), cfg.New(mutate(rng, base, 3, 64)))
	}
	ix := NewIndex(DefaultParams())
	for i, s := range sigs {
		ix.Insert(i, s)
	}
	return ix, sigs
}

// TestPeekCandidatesMatchesQuery: the read-only lookup must
// see exactly the candidate set Query sees at the same index state —
// the whole determinism argument rests on Peek being pure accounting
// savings, not a different ranking.
func TestPeekCandidatesMatchesQuery(t *testing.T) {
	ix, sigs := peekFixture(3, 60)
	for id := range sigs {
		peeked := ix.PeekCandidates(id, sigs[id], 0.05, nil, 0)
		queried := ix.Query(id, sigs[id], 0.05)
		if len(peeked) != len(queried) {
			t.Fatalf("id %d: peek found %d candidates, query %d", id, len(peeked), len(queried))
		}
		for i := range peeked {
			if peeked[i] != queried[i] {
				t.Fatalf("id %d candidate %d: peek %+v != query %+v", id, i, peeked[i], queried[i])
			}
		}
	}
}

// TestPeekCandidatesLeavesStatsAlone: peeks must not move any index
// statistic — those counters belong to the sequential schedule.
func TestPeekCandidatesLeavesStatsAlone(t *testing.T) {
	ix, sigs := peekFixture(4, 40)
	before := ix.Stats()
	for id := range sigs {
		ix.PeekCandidates(id, sigs[id], 0.0, func(int) bool { return true }, 3)
	}
	if after := ix.Stats(); after != before {
		t.Errorf("stats moved under peeks: %+v -> %+v", before, after)
	}
}

// TestPeekCandidatesFilterAndTruncate: the accept filter excludes
// candidates before scoring and k truncates after the deterministic
// sort, mirroring how the serving store consumes it.
func TestPeekCandidatesFilterAndTruncate(t *testing.T) {
	ix, sigs := peekFixture(5, 40)
	for id := range sigs {
		all := ix.PeekCandidates(id, sigs[id], 0.0, nil, 0)
		if len(all) < 2 {
			continue
		}
		banned := all[0].ID
		filtered := ix.PeekCandidates(id, sigs[id], 0.0, func(c int) bool { return c != banned }, 0)
		for _, c := range filtered {
			if c.ID == banned {
				t.Fatalf("id %d: rejected candidate %d still returned", id, banned)
			}
		}
		if len(filtered) != len(all)-1 {
			t.Fatalf("id %d: filter removed %d candidates, want 1", id, len(all)-len(filtered))
		}
		if topk := ix.PeekCandidates(id, sigs[id], 0.0, nil, 2); len(topk) != 2 || topk[0] != all[0] || topk[1] != all[1] {
			t.Fatalf("id %d: top-2 peek %+v does not prefix full ranking", id, topk)
		}
		return
	}
	t.Skip("fixture produced no multi-candidate query")
}

// TestPeekCandidatesConcurrent: concurrent peeks against concurrent
// serialized authoritative queries (run under -race by check.sh).
func TestPeekCandidatesConcurrent(t *testing.T) {
	ix, sigs := peekFixture(6, 60)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				id := (g*11 + it) % len(sigs)
				ix.PeekCandidates(id, sigs[id], 0.05, nil, 4)
			}
		}(g)
	}
	// The authoritative side stays serialized (one goroutine), as in
	// the pipeline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := range sigs {
			ix.BestWhere(id, sigs[id], 0.05, nil)
		}
	}()
	wg.Wait()
}
