#!/usr/bin/env bash
# A/B the benchmark against a git ref: build ./bench once at <git-ref>
# (extracted with git archive, so no worktree is left registered if the
# run is killed) and once from the work tree, run interleaved pairs of
# full runs — alternating which side goes first — appending to one
# result file per side, then print `go run ./bench -compare` and, per
# (metric, workload), the pairs the work tree won of the pairs not tied
# (scripts/signtest; each metric's direction is read from
# BENCHMARK.json).
#
#   scripts/ab.sh <git-ref> [workload] [pairs] [n]
#
# workload defaults to all five (pass "" to name pairs or n), pairs to
# 10. Given n, the sign tests are also recorded in BENCH_<n>.json at
# the repository root (`signtest -record`): commits, Go version,
# GOMAXPROCS, nproc, CPU model, and per (workload, metric) both
# medians, both IQRs, pairs won of pairs decided and the verdict. Each
# run uses the bench's defaults (seed 1998, 20 s per measured phase,
# untraced). Everything else is written under a fresh directory in
# ${TMPDIR:-/tmp}; the result files and run logs stay there and are
# named at the end.
set -euo pipefail

usage="usage: scripts/ab.sh <git-ref> [workload] [pairs] [n]"
ref=${1:?$usage}
workload=${2:-}
pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
record=()
if [ -n "${4:-}" ]; then
  record=(-record "$root/BENCH_$4.json")
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/qrel-ab.XXXXXX")

mkdir -p "$tmp/base" "$tmp/cand"
git -C "$root" archive "$ref" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/base/bench.bin" ./bench)
(cd "$root" && go build -o "$tmp/cand/bench.bin" ./bench)
# Each side runs in its own directory, whose .git/HEAD is all the bench
# reads to label its result file.
mkdir -p "$tmp/base/.git" "$tmp/cand/.git"
git -C "$root" rev-parse "$ref^{commit}" >"$tmp/base/.git/HEAD"
echo "$(git -C "$root" rev-parse HEAD)+worktree" >"$tmp/cand/.git/HEAD"

args=()
if [ -n "$workload" ]; then
  args=(-workload "$workload")
fi
run() {
  if ! (cd "$tmp/$1" && ./bench.bin "${args[@]}" -dir "$tmp/$1/scratch" -out "$tmp/$1.json" >>"$tmp/$1.log" 2>&1); then
    tail -n 20 "$tmp/$1.log" >&2
    echo "ab: the $1 run failed; logs in $tmp" >&2
    exit 1
  fi
}
for ((i = 1; i <= pairs; i++)); do
  first=base second=cand
  if ((i % 2 == 0)); then
    first=cand second=base
  fi
  echo "pair $i/$pairs: $first, then $second" >&2
  run "$first"
  run "$second"
done

status=0
"$tmp/cand/bench.bin" -compare "$tmp/base.json" "$tmp/cand.json" || status=$?
echo
echo "sign test, pairs won by the work tree / pairs not tied:"
(cd "$root" && go run ./scripts/signtest "${record[@]}" BENCHMARK.json "$tmp/base.json" "$tmp/cand.json")
echo "result files: $tmp/base.json (baseline $ref) $tmp/cand.json (work tree); logs beside them" >&2
exit "$status"
