#!/usr/bin/env bash
# Builds the benchmark program, simdc_bench (Release, in .bench_build/), and
# runs it.
#
# One run of one workload (the last stdout line is the result object):
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# A set: every workload in its own process, seeds 1..N, untraced unless
# --trace is given. Every metric is printed by name and unit, the raw
# records go to --out (default .bench_build/results/set-<time>.jsonl), and
# the exit status is non-zero if any output check failed:
#   bash benchmark/run.sh [--runs N] [--seconds S] [--trace] [--out FILE]
#
# Two commits, interleaved: --against DIR also builds this benchmark
# against DIR/src (DIR is another checkout, e.g. the parent commit from
# `git archive`) and runs the two builds seed by seed, one right after the
# other, switching which runs first each seed. DIR's records go to
# <out>.base.jsonl; compare with
#   python3 benchmark/compare.py <out>.base.jsonl <out>
#
# Harness self-check (tiny workloads, same checks, timings meaningless):
#   bash benchmark/run.sh --smoke
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_root="$root/.bench_build"
build="$build_root/cmake"
workloads=(fleet_wide train_heavy multi_tenant durable_churn)
cores="$(nproc)"
jobs=$((cores < 4 ? cores : 4))

# build_bench <build dir> <simdc sources>
build_bench() {
  cmake -S "$root/benchmark" -B "$1" -DCMAKE_BUILD_TYPE=Release \
    -DSIMDC_SRC_DIR="$2" >&2
  cmake --build "$1" -j "$jobs" >&2
}

# commit_of <tree>: short commit id, "-dirty" with uncommitted changes.
commit_of() (
  export GIT_CEILING_DIRECTORIES="$(dirname "$1")"
  if [ -e "$1/.git" ] && command -v git >/dev/null 2>&1 &&
    id="$(git -C "$1" rev-parse --short=12 HEAD 2>/dev/null)"; then
    if [ -n "$(git -C "$1" status --porcelain 2>/dev/null)" ]; then
      id="$id-dirty"
    fi
    echo "$id"
  else
    echo unknown
  fi
)

# Per-run scratch (durable log, probe files) and a set's record buffer,
# removed however the script ends.
work=""
record=""
cleanup() { rm -rf ${work:+"$work"} ${record:+"$record"}; }
trap cleanup EXIT

# run_bench <build dir> <commit> <simdc_bench args...>: one simdc_bench
# process, stdout passed through.
run_bench() {
  local dir="$1" commit="$2"
  shift 2
  mkdir -p "$build_root/tmp" "$build_root/traces"
  work="$(mktemp -d "$build_root/tmp/run.XXXXXX")"
  local status=0
  "$dir/simdc_bench" "$@" --work-dir "$work" \
    --pinned "$root/benchmark/pinned_digests.txt" --commit "$commit" ||
    status=$?
  rm -rf "$work"
  work=""
  return "$status"
}

workload=""
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; ++i)); do
  case "${args[i]}" in
    --workload) workload="${args[i + 1]:-}" ;;
    --trace) [ "${args[i + 1]:-}" = 1 ] && trace=1 ;;
  esac
done

if [ -n "$workload" ]; then
  build_bench "$build" "$root/src"
  trace_file=()
  if [ "$trace" = 1 ]; then
    trace_file=(--trace-file "$build_root/traces/$workload.json")
  fi
  run_bench "$build" "$(commit_of "$root")" "$@" "${trace_file[@]}"
  exit $?
fi

runs=1
seconds=15
set_trace=0
smoke=0
out=""
against=""
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) set_trace=1; shift ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    --against) against="$(cd "$2" && pwd)"; shift 2 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done
mkdir -p "$build_root/results"
out="${out:-$build_root/results/set-$(date +%Y%m%d-%H%M%S).jsonl}"

# Side 0 is this tree; side 1, with --against, the other one.
build_bench "$build" "$root/src"
side_build=("$build")
side_commit=("$(commit_of "$root")")
side_out=("$out")
if [ -n "$against" ]; then
  [ -f "$against/src/CMakeLists.txt" ] ||
    { echo "run.sh: no simdc sources in $against/src" >&2; exit 2; }
  build_bench "$build_root/against" "$against/src"
  side_build+=("$build_root/against")
  side_commit+=("$(commit_of "$against")")
  side_out+=("${out%.jsonl}.base.jsonl")
fi

failures=0
mkdir -p "$build_root/tmp"
record="$(mktemp "$build_root/tmp/set.XXXXXX")"
for seed in $(seq 1 "$runs"); do
  order=(0)
  if [ -n "$against" ]; then
    order=(0 1)
    [ $((seed % 2)) = 1 ] && order=(1 0)
  fi
  for w in "${workloads[@]}"; do
    modes=("$set_trace")
    extra=()
    if [ "$smoke" = 1 ]; then
      modes=(0 1)
      extra=(--smoke)
    fi
    for t in "${modes[@]}"; do
      trace_file=()
      if [ "$t" = 1 ]; then
        trace_file=(--trace-file "$build_root/traces/$w.json")
      fi
      for s in "${order[@]}"; do
        if ! run_bench "${side_build[s]}" "${side_commit[s]}" \
          --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
          "${extra[@]}" "${trace_file[@]}" >"$record"; then
          failures=$((failures + 1))
        fi
        cat "$record" >>"${side_out[s]}"
      done
    done
  done
done
for file in "${side_out[@]}"; do echo "records: $file" >&2; done
if [ "$failures" -ne 0 ]; then
  echo "run.sh: $failures run(s) failed their output checks" >&2
  exit 1
fi
