#!/bin/sh
# check.sh — the repository's verification gate.
#
# Runs static analysis and the full test suite under the race detector.
# The -race run is what guards the parallel fingerprinting pool
# (core.Config.Workers) and the serving store: the determinism and
# worker-pool tests fingerprint with multiple goroutines, so a
# reintroduced data race in the fingerprint config or the pool fails
# here even on a single-CPU machine.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
# Every Go file must be gofmt-clean; any file gofmt would rewrite is
# listed and fails the gate.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt would rewrite:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== lintdoc (exported-comment lint)"
go run ./scripts/lintdoc ./internal/* ./cmd/* ./scripts/lintdoc ./scripts/lintmap

echo "== lintmap (unsorted map iteration lint)"
# The determinism lint: the deterministic packages (report-producing
# pipeline, analysis, serving, alignment) may not range over maps
# without either sorting or a reviewed `lintmap:ignore` annotation.
go run ./scripts/lintmap ./internal/core ./internal/analysis ./internal/serve ./internal/align

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
# An explicit per-package timeout instead of go test's default 10
# minutes: internal/experiments alone takes 602-735 s under -race on a
# 2-vCPU host, so the default failed a correct tree with a timeout
# panic. 30 minutes is about 2.4x the slowest measured run; every test
# still runs, and a hung test still fails.
go test -race -timeout 30m ./...

echo "== f3m -check=strict over the corpus"
# The analyzer gate: the strict verifier, merge auditor and IR linter
# must stay silent on every checked-in input (nonzero exit on any
# error-level diagnostic).
go run ./cmd/f3m -check=strict testdata/handlers.c >/dev/null
go run ./cmd/f3m -check=strict -strategy hyfm testdata/handlers.c >/dev/null
go run ./cmd/f3m -check=strict -gen 200 -seed 5 >/dev/null

echo "== f3m -check=validate over the corpus"
# The translation-validation gate: every merge the pipeline commits on
# the corpus must be proven behaviourally equivalent to the originals
# it replaced (nonzero exit on any tv diagnostic).
go run ./cmd/f3m -check=validate testdata/handlers.c >/dev/null
go run ./cmd/f3m -check=validate -strategy hyfm testdata/handlers.c >/dev/null
go run ./cmd/f3m -check=validate -gen 200 -seed 5 >/dev/null

echo "== f3m summary/merge cross-module gate"
# The cross-module gate: summarize the two checked-in corpus modules,
# merge them optimistically from the summaries under the translation
# validator, and require zero refuted merges on clean inputs and at
# least one cross-module merge. (Summary merging starts no worker
# pool, so there is no sequential-vs-parallel pair to compare.)
# Summaries are regenerated into a temp dir so the gate also
# proves `f3m summary` output still drives the merge (the golden test
# separately pins the checked-in .sum files).
XMOD="$(mktemp -d)"
trap 'rm -rf "$XMOD"' EXIT
go run ./cmd/f3m summary -source xmod_a.ir -o "$XMOD/xmod_a.sum" cmd/f3m/testdata/xmod_a.ir
go run ./cmd/f3m summary -source xmod_b.ir -o "$XMOD/xmod_b.sum" cmd/f3m/testdata/xmod_b.ir
cp cmd/f3m/testdata/xmod_a.ir cmd/f3m/testdata/xmod_b.ir "$XMOD/"
go run ./cmd/f3m merge -summaries -check=validate -v \
    "$XMOD/xmod_a.sum" "$XMOD/xmod_b.sum" >"$XMOD/report.txt"
grep -q "0 refuted" "$XMOD/report.txt"
grep -q "cross-module)" "$XMOD/report.txt"

echo "== f3m wat front-end gate"
# The wat gate: the checked-in two-revision scanner corpus must lower,
# link and merge cleanly under both strict checks and full translation
# validation, with byte-identical reports at sequential vs fully
# parallel settings, zero diagnostics, and at least one committed
# merge (the report line is "attempts: N ranked pairs, M merged").
WAT="$(mktemp -d)"
trap 'rm -rf "$XMOD" "$WAT"' EXIT
go run ./cmd/f3m -check=strict \
    cmd/f3m/testdata/scanner_v1.wat cmd/f3m/testdata/scanner_v2.wat >/dev/null
go run ./cmd/f3m -check=validate -workers 1 -v \
    cmd/f3m/testdata/scanner_v1.wat cmd/f3m/testdata/scanner_v2.wat \
    | sed 's/^pass time:.*$//' >"$WAT/seq.txt"
go run ./cmd/f3m -check=validate -workers 8 -v \
    cmd/f3m/testdata/scanner_v1.wat cmd/f3m/testdata/scanner_v2.wat \
    | sed 's/^pass time:.*$//' >"$WAT/par.txt"
cmp "$WAT/seq.txt" "$WAT/par.txt"
grep -q "0 diagnostics (0 errors)" "$WAT/seq.txt"
grep -q "ranked pairs, [1-9]" "$WAT/seq.txt"

echo "== f3m -strategy=f3m-cfg corpus gate"
# The CFG-alignment gate: both checked-in front-end corpora must merge
# under the reorder-tolerant strategy with every commit re-proved by
# the translation validator, and the report must stay byte-identical
# between the sequential and fully parallel settings.
CFG="$(mktemp -d)"
trap 'rm -rf "$XMOD" "$WAT" "$CFG"' EXIT
go run ./cmd/f3m -strategy=f3m-cfg -check=validate -workers 1 -v \
    cmd/f3m/testdata/scanner_v1.wat cmd/f3m/testdata/scanner_v2.wat \
    | sed 's/^pass time:.*$//' >"$CFG/wat_seq.txt"
go run ./cmd/f3m -strategy=f3m-cfg -check=validate -workers 8 -v \
    cmd/f3m/testdata/scanner_v1.wat cmd/f3m/testdata/scanner_v2.wat \
    | sed 's/^pass time:.*$//' >"$CFG/wat_par.txt"
cmp "$CFG/wat_seq.txt" "$CFG/wat_par.txt"
grep -q "0 diagnostics (0 errors)" "$CFG/wat_seq.txt"
grep -q "ranked pairs, [1-9]" "$CFG/wat_seq.txt"
go run ./cmd/f3m -strategy=f3m-cfg -check=validate -workers 1 -v \
    testdata/handlers.c | sed 's/^pass time:.*$//' >"$CFG/minic_seq.txt"
go run ./cmd/f3m -strategy=f3m-cfg -check=validate -workers 8 -v \
    testdata/handlers.c | sed 's/^pass time:.*$//' >"$CFG/minic_par.txt"
cmp "$CFG/minic_seq.txt" "$CFG/minic_par.txt"
grep -q "0 diagnostics (0 errors)" "$CFG/minic_seq.txt"
grep -q "ranked pairs, [1-9]" "$CFG/minic_seq.txt"

echo "== f3m serve self-check (API smoke + SERVING.md drift)"
# The serving gate: boot a loopback daemon, drive every HTTP route
# (submit, query, merge, snapshot -> mutate -> restore -> re-merge with
# a byte-identical report key, graceful shutdown), and fail if any
# registered route is missing from SERVING.md.
go run ./cmd/f3m serve -selfcheck -serving-doc SERVING.md >/dev/null

if [ "${BENCH_GATE:-}" = "1" ]; then
    echo "== merge-stage allocs/op gate (BENCH_GATE=1)"
    # Opt-in: runs the merge-stage benchmark and fails on any allocs/op
    # regression against the checked-in BENCH_budget.json ceilings. Off
    # by default because a benchmark run costs minutes; ns/op is NOT
    # gated (too noisy on shared hosts), only allocation counts. All
    # three output files go to a temp dir, so the gate never rewrites
    # the checked-in BENCH_*.json snapshots.
    BENCH="$(mktemp -d)"
    trap 'rm -rf "$XMOD" "$WAT" "$CFG" "$BENCH"' EXIT
    SUMOUT="$BENCH/summary.json" ALIGNOUT="$BENCH/align.json" \
        scripts/bench.sh "$BENCH/merge.json"
fi

echo "== fuzz smoke (FUZZTIME=${FUZZTIME:-5s} per target)"
# Short randomized runs of the native fuzz targets; the full
# checked-in corpora under testdata/fuzz (including past crash inputs)
# already ran as regression seeds during `go test` above. Crank
# FUZZTIME up for a real fuzzing session.
go test -run '^$' -fuzz '^FuzzIRParseRoundTrip$' -fuzztime "${FUZZTIME:-5s}" ./internal/ir
go test -run '^$' -fuzz '^FuzzSplitLink$' -fuzztime "${FUZZTIME:-5s}" ./internal/ir
go test -run '^$' -fuzz '^FuzzMinicParser$' -fuzztime "${FUZZTIME:-5s}" ./internal/minic
go test -run '^$' -fuzz '^FuzzFingerprintEncode$' -fuzztime "${FUZZTIME:-5s}" ./internal/fingerprint
go test -run '^$' -fuzz '^FuzzWatParseRoundTrip$' -fuzztime "${FUZZTIME:-5s}" ./internal/wat
# These two seed with multi-kilobyte files, which the default minimizer
# would spend the whole smoke budget shrinking.
go test -run '^$' -fuzz '^FuzzSummaryDecode$' -fuzztime "${FUZZTIME:-5s}" -fuzzminimizetime 10x ./internal/analysis/summary
go test -run '^$' -fuzz '^FuzzSnapshotRestore$' -fuzztime "${FUZZTIME:-5s}" -fuzzminimizetime 10x ./internal/serve

echo "ok"
