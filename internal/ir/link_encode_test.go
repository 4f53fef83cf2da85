package ir_test

import (
	"slices"
	"testing"

	"f3m/internal/fingerprint"
	"f3m/internal/ir"
)

// TestCrossContextLinkEncodings pins the dense instruction encodings of
// a cross-context link. They key on the type IDs the linked context
// assigns while importing the second unit, so the pinned values (those
// of a print/parse round-trip link) fail this test if the order in
// which LinkModules interns foreign types drifts.
func TestCrossContextLinkEncodings(t *testing.T) {
	a := ir.MustParseModule(ir.CrossContextUnitA)
	b := ir.MustParseModule(ir.CrossContextUnitB)
	linked, err := ir.LinkModules("prog", a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]fingerprint.Encoded{
		"a":   {0xee140041},
		"log": {},
		"b": {0x39cc4c18, 0x6c445018, 0x6024009a, 0xe34c54db, 0x610c009a, 0x00040042,
			0xaccc18a9, 0x692454db, 0x610c009a, 0xaccc1886, 0xbc7408a6, 0xea6c00c3,
			0x6c9c1459, 0x29dc14aa, 0x367c3865, 0x717c14ea, 0x585414aa, 0xbb9c0041},
	}
	if len(linked.Funcs) != len(want) {
		t.Fatalf("linked module has %d functions, want %d", len(linked.Funcs), len(want))
	}
	for _, f := range linked.Funcs {
		if got := fingerprint.EncodeFunc(f); !slices.Equal(got, want[f.Nam]) {
			t.Errorf("@%s encodes as %#x, want %#x", f.Nam, got, want[f.Nam])
		}
	}
}
