package fingerprint

import "f3m/internal/ir"

// FreqVector is the opcode-frequency fingerprint used by HyFM: one
// counter per opcode. It carries no structural information, which is
// exactly the weakness Figures 4-6 of the paper quantify.
type FreqVector struct {
	Counts [ir.NumOpcodes]int32
	Total  int32
}

// FreqFunc builds the opcode-frequency fingerprint of a function.
func FreqFunc(f *ir.Function) *FreqVector {
	var v FreqVector
	f.Instructions(func(in *ir.Instr) {
		v.Counts[in.Op]++
		v.Total++
	})
	return &v
}

// FreqBlockInto fills v with the opcode-frequency fingerprint of b,
// overwriting previous contents. Callers that score many blocks use it
// to keep the vectors in a reusable backing array instead of
// allocating one per block.
func FreqBlockInto(b *ir.Block, v *FreqVector) {
	*v = FreqVector{}
	for _, in := range b.Instrs {
		v.Counts[in.Op]++
		v.Total++
	}
}

// Distance is the Manhattan (L1) distance between the two count
// vectors: the number of instructions that cannot possibly be matched
// one-to-one by opcode.
func (v *FreqVector) Distance(o *FreqVector) int {
	d := int32(0)
	for i := range v.Counts {
		x := v.Counts[i] - o.Counts[i]
		if x < 0 {
			x = -x
		}
		d += x
	}
	return int(d)
}

// Similarity is the normalized fingerprint similarity in [0,1] used
// throughout the paper's figures: 1 - distance/(|A|+|B|). Two empty
// functions have similarity 1.
func (v *FreqVector) Similarity(o *FreqVector) float64 {
	tot := v.Total + o.Total
	if tot == 0 {
		return 1
	}
	return 1 - float64(v.Distance(o))/float64(tot)
}
