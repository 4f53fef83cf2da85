package summary

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSummaryDecode drives the `.sum` decoder, whose input is
// user-supplied, over arbitrary bytes: Decode must never panic,
// whatever it accepts must survive Encode → Decode → Encode unchanged,
// and planning over it must not panic either. Seeds are the checked-in
// cross-module corpus summaries plus past crash inputs.
func FuzzSummaryDecode(f *testing.F) {
	for _, name := range []string{"xmod_a.sum", "xmod_b.sum"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "..", "cmd", "f3m", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":"f3msum1","params":{"k":0},"funcs":[null]}`))
	f.Add([]byte(`{"version":"f3msum1","params":{"k":1},"funcs":[{"name":"f","minhash":"00000001"},{"name":"g","minhash":"00000001"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := ms.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded summary: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of an encoded summary: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("summary does not round-trip:\n%s\nvs\n%s", enc, again)
		}
		if ix := NewIndex(); ix.Add(ms) == nil {
			ix.Plan(0, 1, nil)
		}
	})
}
