package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildCorpus submits n synthetic modules sequentially (sequential
// submission pins the store's insertion order, which is what makes the
// re-snapshot byte-identity assertion below meaningful).
func buildCorpus(t testing.TB, srv *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		src := genModule(int64(10+i), fmt.Sprintf("m%d_", i))
		if _, err := srv.SubmitModule(fmt.Sprintf("mod-%02d", i), src); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// TestSnapshotRoundTrip is the round-trip property: snapshot → restore
// into a fresh server must reproduce the module registry, the query
// behavior and — on re-snapshot — the exact snapshot bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.snap")

	orig := NewServer(DefaultConfig())
	buildCorpus(t, orig, 4)
	info, err := orig.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Modules != 4 || info.Funcs == 0 {
		t.Fatalf("snapshot info %+v", info)
	}
	data1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewServer(DefaultConfig())
	rinfo, err := fresh.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Modules != 4 || rinfo.Funcs != info.Funcs {
		t.Fatalf("restore info %+v, want to match snapshot %+v", rinfo, info)
	}

	// Registry views agree exactly.
	if !reflect.DeepEqual(orig.Modules(), fresh.Modules()) {
		t.Fatalf("module registries differ:\n%+v\nvs\n%+v", orig.Modules(), fresh.Modules())
	}

	// Every stored function queries identically in both servers.
	for _, mi := range orig.Modules() {
		for _, fn := range mi.Funcs {
			a, err := orig.QueryStored(mi.Name, fn, 0.3, 20)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.QueryStored(mi.Name, fn, 0.3, 20)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("query %s.%s differs after restore:\n%+v\nvs\n%+v", mi.Name, fn, a, b)
			}
		}
	}

	// Re-snapshot from the restored server: byte-identical file.
	path2 := filepath.Join(dir, "b.snap")
	if _, err := fresh.Snapshot(path2); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("re-snapshot is not byte-identical (%d vs %d bytes)", len(data1), len(data2))
	}

	// Both servers merge to the same report key.
	s1, err := orig.Merge()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := fresh.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if s1.ReportKey != s2.ReportKey {
		t.Fatalf("merge report keys differ after restore: %s vs %s", s1.ReportKey, s2.ReportKey)
	}
}

// TestRestoreCorruptSnapshot seeds deterministic single-byte faults all
// over a valid snapshot and asserts every corrupted variant is refused
// with a clean error while the server state stays untouched.
func TestRestoreCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "good.snap")
	orig := NewServer(DefaultConfig())
	buildCorpus(t, orig, 2)
	if _, err := orig.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(DefaultConfig())
	buildCorpus(t, srv, 1)
	before := srv.Modules()

	rng := rand.New(rand.NewSource(7))
	bad := filepath.Join(dir, "bad.snap")
	for trial := 0; trial < 64; trial++ {
		data := append([]byte(nil), good...)
		pos := rng.Intn(len(data))
		data[pos] ^= byte(1 + rng.Intn(255))
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Restore(bad); err == nil {
			t.Fatalf("trial %d: flipped byte at %d, restore succeeded", trial, pos)
		}
		if !reflect.DeepEqual(srv.Modules(), before) {
			t.Fatalf("trial %d: failed restore mutated server state", trial)
		}
	}

	// Truncations at every quartile are refused too.
	for _, frac := range []int{0, 1, 2, 3} {
		n := len(good) * frac / 4
		if err := os.WriteFile(bad, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Restore(bad); err == nil {
			t.Fatalf("restore of %d-byte truncation succeeded", n)
		}
	}
	if !reflect.DeepEqual(srv.Modules(), before) {
		t.Fatal("failed restores mutated server state")
	}
}

// TestRestoreKeepsCappedQueries: with a bucket cap of 1, which
// candidate a query sees depends on bucket order, that is on insertion
// order. Modules submitted out of name order must come back from a
// restore in submission order, so every capped query answers as
// before.
func TestRestoreKeepsCappedQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capped.snap")
	cfg := DefaultConfig()
	cfg.Store.BucketCap = 1
	orig := NewServer(cfg)
	for i := 3; i >= 0; i-- {
		src := genModule(int64(10+i), fmt.Sprintf("m%d_", i))
		if _, err := orig.SubmitModule(fmt.Sprintf("mod-%02d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orig.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewServer(cfg)
	if _, err := fresh.Restore(path); err != nil {
		t.Fatal(err)
	}
	for _, mi := range orig.Modules() {
		for _, fn := range mi.Funcs {
			a, err := orig.QueryStored(mi.Name, fn, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.QueryStored(mi.Name, fn, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("capped query %s.%s differs after restore:\n%+v\nvs\n%+v", mi.Name, fn, a, b)
			}
		}
	}
}

// TestRestoreAcrossStoreConfig: snapshots carry no store parameters,
// so a snapshot written by a K=64 server restores into a default
// (K=200) server, whose queries then answer exactly as those of a
// default server that received the same submissions directly.
func TestRestoreAcrossStoreConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k64.snap")
	cfg := DefaultConfig()
	cfg.Store.K = 64
	k64 := NewServer(cfg)
	buildCorpus(t, k64, 3)
	if _, err := k64.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	restored := NewServer(DefaultConfig())
	if _, err := restored.Restore(path); err != nil {
		t.Fatalf("restore of a K=64 snapshot into a K=200 server: %v", err)
	}
	direct := NewServer(DefaultConfig())
	buildCorpus(t, direct, 3)

	if !reflect.DeepEqual(direct.Modules(), restored.Modules()) {
		t.Fatalf("module registries differ:\n%+v\nvs\n%+v", direct.Modules(), restored.Modules())
	}
	queried := 0
	for _, mi := range direct.Modules() {
		for _, fn := range mi.Funcs {
			a, err := direct.QueryStored(mi.Name, fn, 0.2, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.QueryStored(mi.Name, fn, 0.2, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("query %s.%s: direct %+v, restored %+v", mi.Name, fn, a, b)
			}
			queried++
		}
	}
	if queried == 0 {
		t.Fatal("corpus has no indexed functions to query")
	}
}

// TestRestoreRefusesV1: a snapshot in the retired v1 format (which
// stored ids, signatures and a store-config header) is refused with a
// version error, and the server keeps its state.
func TestRestoreRefusesV1(t *testing.T) {
	srv := NewServer(DefaultConfig())
	buildCorpus(t, srv, 1)
	before := srv.Modules()
	_, err := srv.Restore(filepath.Join("testdata", "v1.snap"))
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot format \"F3MSNAP1\"") {
		t.Fatalf("restore of a v1 snapshot: err = %v, want an unsupported-format error", err)
	}
	if !reflect.DeepEqual(srv.Modules(), before) {
		t.Fatal("refused v1 restore mutated server state")
	}
}

// TestSnapshotNoPath exercises the unconfigured-path error.
func TestSnapshotNoPath(t *testing.T) {
	srv := NewServer(DefaultConfig())
	if _, err := srv.Snapshot(""); err == nil {
		t.Fatal("snapshot with no path succeeded")
	}
	if _, err := srv.Restore(""); err == nil {
		t.Fatal("restore with no path succeeded")
	}
}

// TestSnapshotOrderSurvivesIDReuse removes a module so the next
// submission reuses its lower store ids: the snapshot must still list
// modules in submission order, not id order.
func TestSnapshotOrderSurvivesIDReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reuse.snap")
	srv := NewServer(DefaultConfig())
	for i, name := range []string{"mod-a", "mod-b", "mod-c"} {
		if _, err := srv.SubmitModule(name, genModule(int64(20+i), fmt.Sprintf("m%d_", i))); err != nil {
			t.Fatal(err)
		}
		if name == "mod-b" {
			if err := srv.RemoveModule("mod-a"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := srv.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mods, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range mods {
		got = append(got, m.name)
	}
	if want := []string{"mod-b", "mod-c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot order %v, want submission order %v", got, want)
	}
}
