package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSnapshotRestore feeds arbitrary bytes to Restore. Each input
// either is refused, leaving the server's modules unchanged, or
// restores a state whose snapshot → restore → snapshot round trip is
// byte-identical. Seeds: a valid snapshot of buildCorpus(2), its
// truncations, and a file in the retired v1 format.
func FuzzSnapshotRestore(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.snap")
	seedSrv := NewServer(DefaultConfig())
	buildCorpus(f, seedSrv, 2)
	if _, err := seedSrv.Snapshot(seedPath); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, n := range []int{0, 8, 12, len(good) / 2, len(good) - 4, len(good) - 1} {
		f.Add(good[:n])
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	resident := genModule(99, "r_")
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.snap")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(DefaultConfig())
		if _, err := srv.SubmitModule("resident", resident); err != nil {
			t.Fatal(err)
		}
		before := srv.Modules()
		if _, err := srv.Restore(in); err != nil {
			if !reflect.DeepEqual(srv.Modules(), before) {
				t.Fatalf("failed restore (%v) changed the modules", err)
			}
			return
		}

		first := filepath.Join(dir, "first.snap")
		if _, err := srv.Snapshot(first); err != nil {
			t.Fatal(err)
		}
		again := NewServer(DefaultConfig())
		if _, err := again.Restore(first); err != nil {
			t.Fatalf("restoring a snapshot of a restored server: %v", err)
		}
		second := filepath.Join(dir, "second.snap")
		if _, err := again.Snapshot(second); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(first)
		b, errB := os.ReadFile(second)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("snapshot round trip is not byte-identical (%d vs %d bytes)", len(a), len(b))
		}
	})
}
