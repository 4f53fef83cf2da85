package fingerprint

// MinHash generation: shingle the encoded instruction stream, hash each
// shingle once with FNV-1a, then derive k hash lanes by xor-ing the
// base hash with k pseudo-random seeds (the paper's cheap substitute
// for k independent hash functions). Each lane keeps its minimum.

// FNV-1a constants (32-bit variant, as in the paper).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv1a32 hashes a shingle of encoded instructions byte-by-byte.
func fnv1a32(shingle []Encoded) uint32 {
	h := uint32(fnvOffset32)
	for _, e := range shingle {
		v := uint32(e)
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnvPrime32
			v >>= 8
		}
	}
	return h
}

// Hash32 exposes the FNV-1a shingle hash for the LSH band hasher.
func Hash32(words []uint32) uint32 {
	h := uint32(fnvOffset32)
	for _, v := range words {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnvPrime32
			v >>= 8
		}
	}
	return h
}

// splitmix64 generates the deterministic seed stream; it passes
// through every 64-bit value and is the standard generator for
// seeding hash families.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Seeds derives k 32-bit xor seeds from a master seed.
func Seeds(k int, master uint64) []uint32 {
	out := make([]uint32, k)
	st := master
	for i := range out {
		out[i] = uint32(splitmix64(&st))
	}
	return out
}

// Config parameterizes MinHash generation.
type Config struct {
	// K is the fingerprint size (number of hash lanes). The paper's
	// default is 200.
	K int

	// ShingleSize is the window length over the encoded instruction
	// stream. The paper fixes it at 2.
	ShingleSize int

	// Seed selects the hash family. All fingerprints that will be
	// compared must share it.
	Seed uint64

	// seeds caches the derived lane seeds.
	seeds []uint32
}

// DefaultConfig returns the paper's defaults: k=200, shingle size 2.
func DefaultConfig() *Config {
	return (&Config{K: 200, ShingleSize: 2, Seed: 0xF3F3F3F3}).Prepare()
}

// WithK returns a copy of the config with a different fingerprint size.
func (c *Config) WithK(k int) *Config {
	return (&Config{K: k, ShingleSize: c.ShingleSize, Seed: c.Seed}).Prepare()
}

// Prepare derives the lane seeds eagerly and returns c. A prepared
// Config is read-only afterwards and therefore safe to share across
// goroutines; the constructors call it, and hand-built literals should
// too before concurrent use.
func (c *Config) Prepare() *Config {
	if len(c.seeds) != c.K {
		c.seeds = Seeds(c.K, c.Seed)
	}
	return c
}

// laneSeeds returns the xor seeds for the config. An unprepared config
// derives them on the fly rather than caching, so that sharing one
// *Config across goroutines never races (Prepare avoids the repeated
// derivation).
func (c *Config) laneSeeds() []uint32 {
	if s := c.seeds; len(s) == c.K {
		return s
	}
	return Seeds(c.K, c.Seed)
}

// MinHash is a MinHash fingerprint: lane i holds the minimum of
// hash_i over all shingles of the function.
type MinHash []uint32

// New builds the MinHash fingerprint of an encoded instruction stream.
// Functions shorter than the shingle size produce a single shingle of
// the whole (padded) sequence so that tiny functions still fingerprint.
func (c *Config) New(seq []Encoded) MinHash {
	k := c.K
	seeds := c.laneSeeds()
	mh := make(MinHash, k)
	for i := range mh {
		mh[i] = ^uint32(0)
	}
	w := c.ShingleSize
	if w <= 0 {
		w = 2
	}
	n := len(seq) - w + 1
	if n < 1 {
		// Pad with zero-valued sentinels to one full window.
		padded := make([]Encoded, w)
		copy(padded, seq)
		h := fnv1a32(padded)
		for i, s := range seeds {
			mh[i] = h ^ s
		}
		return mh
	}
	for at := 0; at < n; at++ {
		h := fnv1a32(seq[at : at+w])
		for i, s := range seeds {
			if hv := h ^ s; hv < mh[i] {
				mh[i] = hv
			}
		}
	}
	return mh
}

// Jaccard estimates the Jaccard similarity of the underlying shingle
// sets as the fraction of matching lanes. The estimate carries
// O(1/sqrt(k)) error.
func (m MinHash) Jaccard(o MinHash) float64 {
	return Similarity(m.Matches(o), len(m))
}

// Similarity is the Jaccard estimate of a k-lane fingerprint with the
// given number of matching lanes (0 when k is 0).
func Similarity(matches, k int) float64 {
	if k == 0 {
		return 0
	}
	return float64(matches) / float64(k)
}

// Matches counts the lanes on which m and o hold the same value: the
// numerator of Jaccard. Fingerprints of different lengths share no
// lanes.
func (m MinHash) Matches(o MinHash) int {
	if len(m) != len(o) {
		return 0
	}
	// Four-way unrolled equality count: this is the full scan of
	// candidate ranking, and the explicit slicing drops the per-lane
	// bounds checks.
	eq := 0
	i := 0
	for ; i+4 <= len(m); i += 4 {
		a, b := m[i:i+4:i+4], o[i:i+4:i+4]
		if a[0] == b[0] {
			eq++
		}
		if a[1] == b[1] {
			eq++
		}
		if a[2] == b[2] {
			eq++
		}
		if a[3] == b[3] {
			eq++
		}
	}
	for ; i < len(m); i++ {
		if m[i] == o[i] {
			eq++
		}
	}
	return eq
}

// ExactJaccard computes the true Jaccard index of two shingle sets; it
// is the slow ground truth MinHash approximates, used by tests and the
// correlation experiments.
func ExactJaccard(a, b []Encoded, shingleSize int) float64 {
	sa := shingleSet(a, shingleSize)
	sb := shingleSet(b, shingleSize)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for s := range sa {
		if _, ok := sb[s]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func shingleSet(seq []Encoded, w int) map[[8]byte]struct{} {
	if w <= 0 {
		w = 2
	}
	set := make(map[[8]byte]struct{})
	n := len(seq) - w + 1
	if n < 1 {
		padded := make([]Encoded, w)
		copy(padded, seq)
		set[shingleKey(padded)] = struct{}{}
		return set
	}
	for at := 0; at < n; at++ {
		set[shingleKey(seq[at:at+w])] = struct{}{}
	}
	return set
}

// shingleKey packs up to two encoded words into a comparable key;
// longer shingles fold the tail in with FNV.
func shingleKey(sh []Encoded) [8]byte {
	var k [8]byte
	if len(sh) >= 1 {
		v := uint32(sh[0])
		k[0], k[1], k[2], k[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	if len(sh) >= 2 {
		v := uint32(sh[1])
		if len(sh) > 2 {
			v = fnv1a32(sh[1:])
		}
		k[4], k[5], k[6], k[7] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	return k
}
