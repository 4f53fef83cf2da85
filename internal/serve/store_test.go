package serve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"f3m/internal/fingerprint"
)

// testSigs builds n distinct signatures plus a fingerprint config
// matching the given store config, so probe signatures are comparable
// with stored ones.
func testSigs(t *testing.T, cfg StoreConfig, n int) []fingerprint.MinHash {
	t.Helper()
	cfg = cfg.withDefaults()
	mh := (&fingerprint.Config{K: cfg.K, ShingleSize: cfg.ShingleSize, Seed: cfg.Seed}).Prepare()
	sigs := make([]fingerprint.MinHash, n)
	for i := range sigs {
		seq := make([]fingerprint.Encoded, 40)
		for j := range seq {
			seq[j] = fingerprint.Encoded(i*1000 + j)
		}
		sigs[i] = mh.New(seq)
	}
	return sigs
}

func TestStoreInsertQueryRemove(t *testing.T) {
	st := NewStore(StoreConfig{})
	sigs := testSigs(t, StoreConfig{}, 3)

	// Two copies of sig 0 under different names, one distinct function.
	a := st.Insert("m1", "f_a", sigs[0])
	b := st.Insert("m2", "f_b", sigs[0])
	st.Insert("m2", "f_c", sigs[1])

	got := st.Query(sigs[0], 0.99, 10, a)
	if len(got) != 1 || got[0].Module != "m2" || got[0].Func != "f_b" {
		t.Fatalf("query for sig0 excluding a: got %+v, want exactly m2.f_b", got)
	}
	if got[0].Similarity != 1 {
		t.Fatalf("identical signature similarity = %v, want 1", got[0].Similarity)
	}

	// Without exclusion both copies come back, deterministically ordered
	// by (module, func) at equal similarity.
	got = st.Query(sigs[0], 0.99, 10, nil)
	if len(got) != 2 || got[0].Module != "m1" || got[1].Module != "m2" {
		t.Fatalf("query without exclusion: got %+v", got)
	}

	// k truncates after the name-ordered sort.
	if got := st.Query(sigs[0], 0.99, 1, nil); len(got) != 1 || got[0].Module != "m1" {
		t.Fatalf("k=1 query: got %+v", got)
	}

	// Removal unindexes.
	st.Remove(b)
	if got := st.Query(sigs[0], 0.99, 10, a); len(got) != 0 {
		t.Fatalf("query after removing b: got %+v, want none", got)
	}
	// Double-remove is a no-op.
	st.Remove(b)
	if st.Stats().Funcs != 2 {
		t.Fatalf("live funcs = %d, want 2", st.Stats().Funcs)
	}
}

func TestStoreEpochAdvances(t *testing.T) {
	st := NewStore(StoreConfig{})
	sigs := testSigs(t, StoreConfig{}, 1)
	e0 := st.Epoch()
	rec := st.Insert("m", "f", sigs[0])
	if st.Epoch() <= e0 {
		t.Fatal("epoch did not advance on insert")
	}
	e1 := st.Epoch()
	st.Remove(rec)
	if st.Epoch() <= e1 {
		t.Fatal("epoch did not advance on remove")
	}
}

// TestStoreConcurrent hammers one store from many goroutines mixing
// inserts, queries and removals; run with -race this is the lock
// discipline check for the store's RWMutex.
func TestStoreConcurrent(t *testing.T) {
	st := NewStore(StoreConfig{})
	sigs := testSigs(t, StoreConfig{}, 8)

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sig := sigs[w]
			for i := 0; i < rounds; i++ {
				rec := st.Insert(fmt.Sprintf("m%d", w), fmt.Sprintf("f%d", i), sig)
				st.Query(sig, 0.5, 4, nil)
				st.Stats()
				if i%2 == 0 {
					st.Remove(rec)
				}
			}
		}(w)
	}
	wg.Wait()

	want := workers * rounds / 2
	if got := st.Stats().Funcs; got != want {
		t.Fatalf("live funcs after concurrent traffic = %d, want %d", got, want)
	}
	// Every surviving record must be findable.
	for w := 0; w < workers; w++ {
		got := st.Query(sigs[w], 0.99, 0, nil)
		if len(got) != rounds/2 {
			t.Fatalf("worker %d: %d matches, want %d", w, len(got), rounds/2)
		}
	}
}

func TestStoreReusesLowestFreedID(t *testing.T) {
	st := NewStore(StoreConfig{})
	sigs := testSigs(t, StoreConfig{}, 1)
	var recs []*FuncRecord
	for i := 0; i < 4; i++ {
		recs = append(recs, st.Insert("m", fmt.Sprintf("f%d", i), sigs[0]))
	}
	st.Remove(recs[2])
	st.Remove(recs[0])
	for _, want := range []int64{0, 2, 4} {
		if got := st.Insert("m", "g", sigs[0]).ID; got != want {
			t.Fatalf("insert got id %d, want %d", got, want)
		}
	}
	// A removed record whose id now belongs to another record excludes
	// nothing: the new owner still answers.
	if got := st.Query(sigs[0], 0.99, 0, recs[0]); len(got) != 5 {
		t.Fatalf("query excluding a stale record: %d matches, want 5", len(got))
	}
}

// TestStoreHeapFlatUnderChurn submits and removes one function many
// times on an empty store: with ids reused, the index's id-indexed
// tables stop growing, so the live heap stays flat.
func TestStoreHeapFlatUnderChurn(t *testing.T) {
	st := NewStore(StoreConfig{})
	sigs := testSigs(t, StoreConfig{}, 1)
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			st.Remove(st.Insert("m", "f", sigs[0]))
		}
	}
	heapAlloc := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cycle(1000)
	before := heapAlloc()
	const cycles = 50000
	cycle(cycles)
	after := heapAlloc()
	// Without reuse each cycle left ~26 B behind (1.3 MB here).
	if after > before && after-before > 256<<10 {
		t.Fatalf("heap grew %d B over %d insert+remove cycles on an empty store", after-before, cycles)
	}
	if st.Stats().Funcs != 0 {
		t.Fatalf("live funcs = %d, want 0", st.Stats().Funcs)
	}
}
