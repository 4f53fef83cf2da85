package irgen

import (
	"math/rand"

	"f3m/internal/fingerprint"
)

// SuiteSpec describes one benchmark-shaped workload, the analogue of a
// row of the paper's Table I. Function counts follow the paper where
// known; the three giant rows are scaled down (documented in DESIGN.md)
// so a full-IR population still fits in memory, while the
// encoded-stream path (GenerateEncoded) runs at paper scale.
type SuiteSpec struct {
	// Name of the workload the shape mimics.
	Name string

	// Funcs is the number of functions to generate.
	Funcs int

	// AvgInstrs steers function body size.
	AvgInstrs int

	// CloneFraction is the fraction of functions that belong to a
	// family (the rest are singletons). Larger programs carry more
	// near-duplicate code (templates, generated handlers).
	CloneFraction float64
}

// Suites lists the workloads of the evaluation, ordered by function
// count as in the paper's figures. SPEC-sized rows use the paper's
// reported function counts; linux/chrome-shaped rows are scaled ~4x and
// ~24x down respectively.
var Suites = []SuiteSpec{
	{Name: "462.libquantum", Funcs: 115, AvgInstrs: 25, CloneFraction: 0.30},
	{Name: "429.mcf", Funcs: 136, AvgInstrs: 30, CloneFraction: 0.25},
	{Name: "458.sjeng", Funcs: 144, AvgInstrs: 35, CloneFraction: 0.30},
	{Name: "433.milc", Funcs: 235, AvgInstrs: 30, CloneFraction: 0.30},
	{Name: "456.hmmer", Funcs: 538, AvgInstrs: 30, CloneFraction: 0.35},
	{Name: "464.h264ref", Funcs: 590, AvgInstrs: 40, CloneFraction: 0.35},
	{Name: "445.gobmk", Funcs: 2679, AvgInstrs: 25, CloneFraction: 0.35},
	{Name: "400.perlbench", Funcs: 1837, AvgInstrs: 35, CloneFraction: 0.40},
	{Name: "471.omnetpp", Funcs: 2526, AvgInstrs: 25, CloneFraction: 0.45},
	{Name: "403.gcc", Funcs: 5577, AvgInstrs: 30, CloneFraction: 0.40},
	{Name: "620.omnetpp_s", Funcs: 9067, AvgInstrs: 25, CloneFraction: 0.45},
	{Name: "623.xalancbmk_s", Funcs: 13394, AvgInstrs: 25, CloneFraction: 0.50},
	{Name: "linux-shaped", Funcs: 11250, AvgInstrs: 22, CloneFraction: 0.45},
	{Name: "chrome-shaped", Funcs: 50000, AvgInstrs: 18, CloneFraction: 0.50},
}

// Config derives a generator config realizing the suite shape.
func (s SuiteSpec) Config(seed int64) Config {
	famFuncs := int(float64(s.Funcs) * s.CloneFraction)
	const famSize = 4 // average family size
	families := famFuncs / famSize
	if families < 1 {
		families = 1
	}
	singles := s.Funcs - families*famSize
	if singles < 0 {
		singles = 0
	}
	blocks := s.AvgInstrs / 8
	if blocks < 2 {
		blocks = 2
	}
	return Config{
		Seed:             seed,
		Families:         families,
		FamilySizeMin:    2,
		FamilySizeMax:    famSize*2 - 2,
		Singletons:       singles,
		BlocksMin:        blocks,
		BlocksMax:        blocks + 3,
		InstrsMin:        3,
		InstrsMax:        s.AvgInstrs / 2,
		MutationMin:      0.0,
		MutationMax:      0.6,
		Callers:          s.Funcs / 50,
		ConfuserFraction: 0.35,
	}
}

// EncodedPopulation is a lightweight stand-in for a function population
// when only ranking is measured: per-function encoded instruction
// streams with the same family/mutation structure as Generate, but no
// IR objects. This is how the scaling experiments reach paper-scale
// function counts (a million functions of real IR would not fit).
type EncodedPopulation struct {
	Seqs []([]fingerprint.Encoded)
	Info []FuncInfo
}

// GenerateEncoded synthesizes an encoded-stream population of n
// functions with the given clone fraction.
func GenerateEncoded(seed int64, n int, avgLen int, cloneFraction float64) *EncodedPopulation {
	rng := rand.New(rand.NewSource(seed))
	pop := &EncodedPopulation{
		Seqs: make([][]fingerprint.Encoded, 0, n),
		Info: make([]FuncInfo, 0, n),
	}
	// Alphabet size approximates the distinct instruction encodings in
	// real programs: dozens of opcodes x a few types.
	const alphabet = 120
	fresh := func() []fingerprint.Encoded {
		ln := avgLen/2 + rng.Intn(avgLen+1)
		if ln < 3 {
			ln = 3
		}
		s := make([]fingerprint.Encoded, ln)
		for i := range s {
			s[i] = fingerprint.Encoded(rng.Intn(alphabet))
		}
		return s
	}
	family := 0
	for len(pop.Seqs) < n {
		if rng.Float64() < cloneFraction {
			// Emit a family of 2-6 variants.
			seed := fresh()
			size := 2 + rng.Intn(5)
			for v := 0; v < size && len(pop.Seqs) < n; v++ {
				s := append([]fingerprint.Encoded(nil), seed...)
				muts := 0
				if v > 0 {
					muts = rng.Intn(len(s)/2 + 1)
					for j := 0; j < muts; j++ {
						s[rng.Intn(len(s))] = fingerprint.Encoded(rng.Intn(alphabet))
					}
				}
				pop.Seqs = append(pop.Seqs, s)
				pop.Info = append(pop.Info, FuncInfo{Family: family, Mutations: muts})
			}
			family++
			continue
		}
		pop.Seqs = append(pop.Seqs, fresh())
		pop.Info = append(pop.Info, FuncInfo{Family: -1})
	}
	return pop
}
