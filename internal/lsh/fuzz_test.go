package lsh

import (
	"testing"

	"f3m/internal/fingerprint"
)

// FuzzBestWhere checks the sketch-filtered BestWhere against the head
// of the unfiltered Query under the same accept filter, on small
// indexes built and churned from the fuzz bytes. Lanes come from a
// six-value alphabet over three low bytes, so low-byte collisions,
// bucket sharing and similarity ties are the common case; ids may be
// negative (sparse) and fingerprints may have another length than the
// index's K.
//
// Layout: data[0] picks rows (bit 0), bands (bits 1-3) and extra lanes
// beyond rows*bands (bits 4-5); data[1] picks the bucket cap (bits
// 0-2) and minSim (bits 3-7). The rest is a stream of operations,
// each an opcode byte, an id byte and, for inserts and fresh queries,
// one byte per lane. Past crash inputs live in testdata/fuzz.
func FuzzBestWhere(f *testing.F) {
	f.Add([]byte{0x13, 0x42, 0, 1, 1, 2, 3, 4, 5, 6, 0, 2, 1, 2, 3, 4, 5, 7, 3, 1})
	f.Add([]byte{0x0b, 0xf1, 0, 0, 9, 9, 9, 9, 9, 9, 0, 1, 9, 9, 9, 9, 9, 9, 0, 2, 0x19, 9, 9, 9, 9, 9, 2, 1, 7, 0})
	f.Add([]byte{0x35, 0x00, 1, 4, 1, 2, 1, 2, 1, 2, 1, 2, 1, 5, 1, 2, 1, 2, 1, 2, 1, 2, 6, 4, 7, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		params := Params{
			Rows:      1 + int(data[0]&1),
			Bands:     1 + int(data[0]>>1&7),
			BucketCap: int(data[1]&7) - 1, // -1 unlimited, 0 default
		}
		k := params.Rows*params.Bands + int(data[0]>>4&3)
		minSim := float64(data[1]>>3) / 31
		data = data[2:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Bits 5-6 of the id byte pick the length: mostly K, sometimes
		// one lane short or two long.
		sig := func(sel byte) fingerprint.MinHash {
			n := k
			switch sel >> 5 & 3 {
			case 1:
				n = k - 1
			case 2:
				n = k + 2
			}
			mh := make(fingerprint.MinHash, n)
			for i := range mh {
				b := next()
				mh[i] = uint32(b%3) | uint32(b>>2&1)<<8
			}
			return mh
		}
		// Bit 7 of the id byte makes it sparse.
		idOf := func(sel byte) int {
			if sel&0x80 != 0 {
				return -1 - int(sel&3)
			}
			return int(sel & 15)
		}

		ix, ref := NewIndex(params), NewIndex(params)
		live := map[int]fingerprint.MinHash{}
		remove := func(id int) {
			if mh, ok := live[id]; ok {
				ix.Remove(id, mh)
				ref.Remove(id, mh)
				delete(live, id)
			}
		}
		check := func(id int, mh fingerprint.MinHash, salt byte) {
			var accept func(int) bool
			if salt&1 != 0 {
				accept = func(c int) bool { return (c+int(salt>>1))%3 != 0 }
			}
			want, wantOK := lshBestFromQuery(ref, id, mh, minSim, accept)
			got, gotOK := ix.BestWhere(id, mh, minSim, accept)
			if gotOK != wantOK || got != want {
				t.Fatalf("query %d %v minSim=%v: BestWhere=%+v,%v Query-head=%+v,%v", id, mh, minSim, got, gotOK, want, wantOK)
			}
		}
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			op, sel := next(), next()
			id := idOf(sel)
			switch op % 4 {
			case 0, 1:
				remove(id)
				mh := sig(sel)
				ix.Insert(id, mh)
				ref.Insert(id, mh)
				live[id] = mh
			case 2:
				remove(id)
			case 3:
				mh, ok := live[id]
				if !ok || op&4 != 0 {
					mh = sig(sel)
				}
				check(id, mh, op>>3)
			}
		}
		for id, mh := range live {
			check(id, mh, byte(id))
		}
	})
}
