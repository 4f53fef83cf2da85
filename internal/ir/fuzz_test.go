package ir

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseSeeds are the hand-written seeds of FuzzIRParseRoundTrip.
var parseSeeds = []string{
	`define i32 @id(i32 %x) {
entry:
  ret i32 %x
}`,
	`@g = global i32 7
define i32 @ld() {
entry:
  %p = load i32, ptr @g
  ret i32 %p
}`,
	`define i32 @max(i32 %a, i32 %b) {
entry:
  %c = icmp sgt i32 %a, %b
  br i1 %c, label %t, label %f
t:
  br label %join
f:
  br label %join
join:
  %m = phi i32 [ %a, %t ], [ %b, %f ]
  ret i32 %m
}`,
	`define void @loop(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %i2 = add i32 %i, 1
  br label %head
exit:
  ret void
}`,
	"define i32 @f() {\nentry:\n  ret i32 -2147483648\n}",
	"declare i32 @ext(i32, ...)",
}

// FuzzIRParseRoundTrip checks the printer/parser fixpoint: any source
// the parser accepts must print to text the parser accepts again, and
// that second parse must print identically (print ∘ parse is idempotent
// after one round). Parser rejections are fine — only panics and
// fixpoint violations count.
func FuzzIRParseRoundTrip(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseModule(src)
		if err != nil {
			return // rejection is fine; panics are the bug
		}
		var first strings.Builder
		if err := WriteModule(&first, m); err != nil {
			t.Fatalf("print of parsed module failed: %v", err)
		}
		m2, err := ParseModule(first.String())
		if err != nil {
			t.Fatalf("printed module does not re-parse: %v\n%s", err, first.String())
		}
		var second strings.Builder
		if err := WriteModule(&second, m2); err != nil {
			t.Fatalf("second print failed: %v", err)
		}
		if first.String() != second.String() {
			t.Fatalf("print/parse not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
		}
	})
}

// roundTripCorpus returns the checked-in FuzzIRParseRoundTrip corpus
// entries (testdata/fuzz, "go test fuzz v1" files holding one string).
func roundTripCorpus(tb testing.TB) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzIRParseRoundTrip", "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			lit, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				tb.Fatalf("%s: %v", file, err)
			}
			out = append(out, s)
		}
	}
	return out
}

// FuzzSplitLink checks that the structural split and link invert each
// other: any valid module with at least two definitions, split into two
// translation units (each in its own TypeContext) and linked back,
// prints exactly as the original and passes VerifyModule. Seeded from
// FuzzIRParseRoundTrip's seeds, pairs of them, its checked-in corpus
// and a module with arrays, structs, a function pointer and a variadic
// declaration.
func FuzzSplitLink(f *testing.F) {
	for i, s := range parseSeeds {
		f.Add(s)
		// Most single seeds hold one definition; pairs of them hold two.
		if i > 0 {
			f.Add(parseSeeds[i-1] + "\n" + s)
		}
	}
	for _, s := range roundTripCorpus(f) {
		f.Add(s)
	}
	f.Add(`global @tab [4 x i32]
global @cnt i64 = 3
declare i32 @printf(i8*, ...)
define i32 @get({i32, i8*}* %s) {
entry:
  %p = getelementptr {i32, i8*}* %s, i64 0, i32 0
  %v = load i32, i32* %p
  ret i32 %v
}
define i32 @use(i32 (i32)* %fp, i8* %fmt) {
entry:
  %r = call i32 %fp(i32 1)
  %q = call i32 @printf(i8* %fmt, i32 %r)
  %e = getelementptr [4 x i32]* @tab, i64 0, i64 1
  store i32 %q, i32* %e
  ret i32 %q
}`)

	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseModule(src)
		if err != nil || VerifyModule(m) != nil {
			return
		}
		defs := 0
		for _, fn := range m.Funcs {
			if !fn.IsDecl() {
				defs++
			}
		}
		if defs < 2 {
			return
		}
		want := ModuleString(m)
		parts, err := SplitModule(m, 2)
		if err != nil {
			t.Fatalf("split: %v\n%s", err, want)
		}
		linked, err := LinkModules(m.Name, parts...)
		if err != nil {
			t.Fatalf("link: %v\n%s", err, want)
		}
		if err := VerifyModule(linked); err != nil {
			t.Fatalf("linked module invalid: %v", err)
		}
		if got := ModuleString(linked); got != want {
			t.Fatalf("split+link changed the module:\n--- want ---\n%s\n--- got ---\n%s", want, got)
		}
	})
}
