#!/bin/sh
# bench.sh — merge-stage perf regression snapshot.
#
# Runs BenchmarkMergeStage (a whole F3M pass: preprocessing plus the
# sequential merge/commit loop) and writes the numbers to
# BENCH_merge.json so the perf trajectory — ns/op, allocs/op and the
# pass's merge count — is tracked across PRs. It also runs
# BenchmarkSummaryExtract (the per-module half of the cross-module
# workflow) and BenchmarkLinkModules (its link step) and writes them as
# the two rows of BENCH_summary.json (summaries/sec plus bytes/func for
# the first), and BenchmarkAlignStrategies (sequence vs
# CFG-aware pipeline on block-permuted twin populations) and writes
# ns/op, mean alignment score, mean block moves and committed merges
# per strategy to BENCH_align.json. BENCHTIME and the output paths are
# overridable:
#
#   BENCHTIME=5x scripts/bench.sh          # more iterations
#   scripts/bench.sh out/bench.json        # alternate merge output file
#   SUMOUT=out/sum.json scripts/bench.sh   # alternate summary output file
#   ALIGNOUT=out/align.json scripts/bench.sh  # alternate align output file
#
# When BENCH_budget.json exists (override the path with ALLOC_BUDGET,
# or set ALLOC_BUDGET=skip to bypass), the run also gates allocs/op of
# every row of every file it wrote against the checked-in per-bench
# ceilings and exits nonzero on a regression or on a budgeted bench
# that produced no row. Allocation counts are schedule-stable — unlike ns/op on
# a noisy box — which is what makes a hard gate feasible.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"
OUT="${1:-BENCH_merge.json}"
ALLOC_BUDGET="${ALLOC_BUDGET:-BENCH_budget.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench BenchmarkMergeStage (benchtime $BENCHTIME)"
go test -run '^$' -bench '^BenchmarkMergeStage$' -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

awk '
/^BenchmarkMergeStage/ {
    ns = ""; bytes = ""; allocs = ""; merges = ""
    for (i = 3; i < NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op") ns = v
        else if (u == "B/op") bytes = v
        else if (u == "allocs/op") allocs = v
        else if (u == "merges") merges = v
    }
    printf "[\n  {\"bench\": \"MergeStage\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"merges\": %s}\n]\n", \
        ns, bytes, allocs, (merges == "" ? "null" : merges)
}
' "$RAW" >"$OUT"

echo "== wrote $OUT"
cat "$OUT"

SUMOUT="${SUMOUT:-BENCH_summary.json}"
echo "== go test -bench 'BenchmarkSummaryExtract|BenchmarkLinkModules' (benchtime $BENCHTIME)"
go test -run '^$' -bench '^(BenchmarkSummaryExtract|BenchmarkLinkModules)$' -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

awk '
/^Benchmark(SummaryExtract|LinkModules)/ {
    ns = ""; bytes = ""; allocs = ""; sps = ""; bpf = ""
    for (i = 3; i < NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op") ns = v
        else if (u == "B/op") bytes = v
        else if (u == "allocs/op") allocs = v
        else if (u == "summaries/s") sps = v
        else if (u == "bytes/func") bpf = v
    }
    if (n++) printf ",\n"
    if ($1 ~ /^BenchmarkSummaryExtract/)
        printf "  {\"bench\": \"SummaryExtract\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"summaries_per_sec\": %s, \"bytes_per_func\": %s}", \
            ns, bytes, allocs, (sps == "" ? "null" : sps), (bpf == "" ? "null" : bpf)
    else
        printf "  {\"bench\": \"LinkModules\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
            ns, bytes, allocs
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$RAW" >"$SUMOUT"

echo "== wrote $SUMOUT"
cat "$SUMOUT"

ALIGNOUT="${ALIGNOUT:-BENCH_align.json}"
echo "== go test -bench BenchmarkAlignStrategies (benchtime $BENCHTIME)"
go test -run '^$' -bench '^BenchmarkAlignStrategies$' -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

awk '
/^BenchmarkAlignStrategies\// {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip the GOMAXPROCS suffix
    sub(/^BenchmarkAlignStrategies\//, "", name)
    ns = ""; bytes = ""; allocs = ""; score = ""; moves = ""; merges = ""
    for (i = 3; i < NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op") ns = v
        else if (u == "B/op") bytes = v
        else if (u == "allocs/op") allocs = v
        else if (u == "align-score") score = v
        else if (u == "block-moves") moves = v
        else if (u == "merges") merges = v
    }
    if (n++) printf ",\n"
    printf "  {\"bench\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"align_score\": %s, \"block_moves\": %s, \"merges\": %s}", \
        name, ns, bytes, allocs, (score == "" ? "null" : score), (moves == "" ? "null" : moves), (merges == "" ? "null" : merges)
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$RAW" >"$ALIGNOUT"

echo "== wrote $ALIGNOUT"
cat "$ALIGNOUT"

if [ "$ALLOC_BUDGET" != "skip" ] && [ -f "$ALLOC_BUDGET" ]; then
    echo "== allocs/op gate ($ALLOC_BUDGET)"
    # Join the fresh numbers against the budget by bench name; both
    # files are the one-object-per-line JSON this script emits, so a
    # line-oriented awk join is enough — no JSON tooling in the image.
    awk '
    function field(line, name,    re, s) {
        re = "\"" name "\": *[0-9.]+"
        if (match(line, re) == 0) return ""
        s = substr(line, RSTART, RLENGTH)
        sub(/^[^0-9]*/, "", s)
        return s
    }
    function bench(line,    s) {
        if (match(line, /"bench": *"[^"]*"/) == 0) return ""
        s = substr(line, RSTART, RLENGTH)
        sub(/^"bench": *"/, "", s)
        sub(/"$/, "", s)
        return s
    }
    FNR == NR { if (bench($0) != "") cap[bench($0)] = field($0, "max_allocs_per_op"); next }
    {
        b = bench($0)
        if (b == "" || !(b in cap)) next
        seen[b] = 1
        got = field($0, "allocs_per_op")
        if (got + 0 > cap[b] + 0) {
            printf "FAIL %s: allocs/op %s exceeds budget %s\n", b, got, cap[b]
            bad = 1
        } else {
            printf "ok   %s: allocs/op %s within budget %s\n", b, got, cap[b]
        }
    }
    END {
        for (b in cap) if (!(b in seen)) {
            printf "FAIL %s: budgeted, but no benchmark row was written\n", b
            bad = 1
        }
        exit bad
    }
    ' "$ALLOC_BUDGET" "$OUT" "$SUMOUT" "$ALIGNOUT"
fi
