package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestLoadModuleGenerated(t *testing.T) {
	m, err := loadModule(nil, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) < 100 {
		t.Errorf("generated %d functions, want ≈150", len(m.Funcs))
	}
}

func TestLoadModuleIRFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ir")
	src := `
define i32 @f(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadModule([]string{path}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("f") == nil {
		t.Error("missing @f")
	}
}

func TestLoadModuleMiniC(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.c")
	b := filepath.Join(dir, "b.c")
	if err := os.WriteFile(a, []byte("int one(int x) { return x + 1; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("int two(int x) { return one(x) + 1; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadModule([]string{a, b}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("one") == nil || m.Func("two") == nil {
		t.Error("missing functions from concatenated unit")
	}
}

func TestLoadModuleWat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twice.wat")
	src := `(func $twice (param $x i32) (result i32) local.get $x local.get $x i32.add)`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadModule([]string{path}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("twice") == nil {
		t.Error("missing @twice")
	}
	if m.Name != "twice" {
		t.Errorf("module name %q, want filename-derived \"twice\"", m.Name)
	}
}

// TestFrontendDispatch pins the extension table: which front end each
// input lands on, and the rejection of unknown and mixed extensions.
func TestFrontendDispatch(t *testing.T) {
	cases := []struct {
		path, want string
		wantErr    bool
	}{
		{path: "m.ir", want: ".ir"},
		{path: "dir/x.ir", want: ".ir"},
		{path: "piped-temp", want: ".ir"}, // extensionless defaults to IR
		{path: "unit.c", want: ".c"},
		{path: "mod.wat", want: ".wat"},
		{path: "mod.wasm", wantErr: true},
		{path: "prog.rs", wantErr: true},
		{path: "archive.tar.gz", wantErr: true},
	}
	for _, tc := range cases {
		got, err := frontendExt(tc.path)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: accepted, want unknown-extension error", tc.path)
			} else if !strings.Contains(err.Error(), "supported:") {
				t.Errorf("%s: error %q does not list supported extensions", tc.path, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.path, err)
		} else if got != tc.want {
			t.Errorf("%s: dispatched to %s, want %s", tc.path, got, tc.want)
		}
	}

	dir := t.TempDir()
	c := filepath.Join(dir, "a.c")
	w := filepath.Join(dir, "b.wat")
	os.WriteFile(c, []byte("int f() { return 0; }"), 0o644)
	os.WriteFile(w, []byte("(func)"), 0o644)
	if _, err := loadModule([]string{c, w}, 0, 0); err == nil || !strings.Contains(err.Error(), "mix") {
		t.Errorf("mixed extensions: got %v, want mixing error", err)
	}
}

func TestLoadModuleErrors(t *testing.T) {
	if _, err := loadModule(nil, 0, 0); err == nil {
		t.Error("expected error with no inputs")
	}
	if _, err := loadModule([]string{"nosuch.ir"}, 0, 0); err == nil {
		t.Error("expected error for missing file")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ir")
	os.WriteFile(bad, []byte("define bogus"), 0o644)
	if _, err := loadModule([]string{bad}, 0, 0); err == nil {
		t.Error("expected parse error")
	}
}

// TestCheckStrictGolden pins the -check=strict report rendering on the
// checked-in corpus. The pass-time line is wall-clock and elided.
func TestCheckStrictGolden(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-check=strict", "-seed", "1", "../../testdata/handlers.c"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	got := regexp.MustCompile(`(?m)^pass time:.*$`).ReplaceAllString(buf.String(), "pass time:     (elided)")
	want, err := os.ReadFile(filepath.Join("testdata", "check_strict.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCheckValidateGolden pins the -check=validate report rendering on
// the checked-in corpus: identical to strict except the checks line,
// with every committed merge proven bisimilar to its originals.
func TestCheckValidateGolden(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-check=validate", "-seed", "1", "../../testdata/handlers.c"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	got := regexp.MustCompile(`(?m)^pass time:.*$`).ReplaceAllString(buf.String(), "pass time:     (elided)")
	want, err := os.ReadFile(filepath.Join("testdata", "check_validate.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMergeWatGolden pins the full wat path end to end: the
// two-revision scanner corpus lowers, links, merges at least one pair
// under full translation validation, and renders a byte-identical
// report at every workers setting.
func TestMergeWatGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "merge_wat.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(want), " 5 merged") {
		t.Fatalf("golden no longer records committed merges:\n%s", want)
	}
	corpus := []string{
		filepath.Join("testdata", "scanner_v1.wat"),
		filepath.Join("testdata", "scanner_v2.wat"),
	}
	for _, w := range []string{"1", "2", "8"} {
		var buf strings.Builder
		args := append([]string{"-check=validate", "-workers", w}, corpus...)
		if err := run(args, &buf); err != nil {
			t.Fatalf("workers=%s: %v\noutput:\n%s", w, err, buf.String())
		}
		got := regexp.MustCompile(`(?m)^pass time:.*$`).ReplaceAllString(buf.String(), "pass time:     (elided)")
		if got != string(want) {
			t.Errorf("workers=%s diverged from golden:\n--- got ---\n%s--- want ---\n%s", w, got, want)
		}
	}
}

// TestCheckModeErrors covers flag rejection and the nonzero-exit path
// for error-level findings.
func TestCheckModeErrors(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-check=pedantic", "-gen", "10"}, &buf); err == nil {
		t.Error("unknown check mode accepted")
	}
}
