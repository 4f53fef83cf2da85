package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"time"
)

// probe is a fixed piece of compiler-like work of the benchmark's own:
// parse a generated Go source file with the standard library's
// go/parser, walk its syntax tree and print it back with go/printer.
// It calls no repository code, so its cost moves with the host's speed
// and never with a change to the program. A run times it before every
// set-up and every pass and once after the last pass, and reports each
// set-up and pass time divided by the mean of the two probe times
// around it, times probeRef.
//
// Why it is needed: the shared host switches between a fast and a slow
// mode every few seconds, and stays mostly slow for spells of minutes.
// In a slow spell the same pass, single-threaded and with no page
// faults or stolen time, took up to twice as long in CPU time as in a
// quiet one. Small kernels (a pointer chase through 32 MB, a memory
// copy, an arithmetic loop) did not slow down with it; large branchy
// code did. The probe is such code: over 60 passes of the gcc-row
// hyfm pass in a slow spell, runs of six passes spread 22 % (quartile
// distance over the median) in raw time and 6 % as a ratio to the
// probe around each pass.
type probe struct {
	src string
}

// probeFuncs sets the probe's length: about 0.15 s in the fast mode of
// a 2.1 GHz Xeon virtual CPU.
const probeFuncs = 1000

// probeRef is the probe time, in seconds, that reported times are
// scaled to: about its time in the host's fast mode. A reported time
// is the raw time × probeRef ÷ the probe's time around it, so it reads
// close to seconds on a quiet host.
const probeRef = 0.15

// newProbe generates the probe's source: probeFuncs functions of
// if/else, loops, switches, calls, map literals and error returns,
// drawn from a fixed random sequence.
func newProbe() *probe {
	var b strings.Builder
	b.WriteString("package p\n\n")
	rng := uint64(0x9E3779B97F4A7C15)
	rand := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for f := 0; f < probeFuncs; f++ {
		fmt.Fprintf(&b, "func f%d(a, b int, s []string) (int, error) {\n\tx := a\n", f)
		for st := 0; st < 12; st++ {
			switch rand(5) {
			case 0:
				fmt.Fprintf(&b, "\tif x > %d {\n\t\tx = x*%d + b\n\t} else {\n\t\tx -= len(s)\n\t}\n", rand(100), rand(9)+1)
			case 1:
				fmt.Fprintf(&b, "\tfor i := 0; i < %d; i++ {\n\t\tx += i ^ b\n\t}\n", rand(50))
			case 2:
				fmt.Fprintf(&b, "\tif len(s) > %d {\n\t\treturn x, fmt.Errorf(\"f%d: %%s\", s[0])\n\t}\n", rand(4), f)
			case 3:
				fmt.Fprintf(&b, "\tswitch x %% %d {\n\tcase 0:\n\t\tx++\n\tcase 1:\n\t\tx, _ = f%d(x, b, s)\n\tdefault:\n\t\tx--\n\t}\n", rand(7)+2, rand(probeFuncs))
			default:
				fmt.Fprintf(&b, "\tm := map[string]int{\"k%d\": x, \"j\": b}\n\tx += m[\"j\"]\n", rand(1<<20))
			}
		}
		b.WriteString("\treturn x, nil\n}\n\n")
	}
	return &probe{src: b.String()}
}

// cost is what one probe cost: its wall time and the process's CPU
// time, in seconds.
type cost struct{ wall, cpu float64 }

// measure runs the probe once. The generated source always parses; an
// error would mean the standard library broke, and panics.
func (p *probe) measure() cost {
	start, startCPU := time.Now(), cpuSeconds()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "probe.go", p.src, 0)
	if err != nil {
		panic("probe source does not parse: " + err.Error())
	}
	nodes := 0
	ast.Inspect(f, func(ast.Node) bool { nodes++; return true })
	var out bytes.Buffer
	if err := printer.Fprint(&out, fset, f); err != nil || nodes == 0 {
		panic(fmt.Sprintf("probe printing failed after %d nodes: %v", nodes, err))
	}
	return cost{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - startCPU}
}

// scaled returns t, measured between the probe costs before and after,
// at the reference host speed.
func scaled(t, before, after float64) float64 {
	return t * probeRef / ((before + after) / 2)
}
