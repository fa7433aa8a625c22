#!/usr/bin/env bash
# Scale-flag validation smoke test for the experiment harnesses
# (bench/bench_common.hpp), run through bench_table2_bssa_vs_dalta.
#
# --runs, --width and --rounds must be rejected up front with exit status 2
# and an error naming the flag when out of range or malformed (they were
# cast unchecked: --runs 0 ran nothing, --width -1 wrapped). --full fixes
# all three, so combining it with any of them is an error too (it used to
# drop them silently). --threads and --seed go through the same check (they
# were read with a bare stoll). Last, --full alone must print the paper's
# parameters without running a search.
set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <path-to-bench_table2_bssa_vs_dalta>" >&2
  exit 2
fi
harness=$1

failures=0
# expect_rejected FLAG ARGS...: the harness given ARGS exits 2 naming FLAG.
expect_rejected() {
  local flag=$1 output status
  shift
  output=$(timeout -s KILL 20 "$harness" --benchmarks cos "$@" 2>&1)
  status=$?
  if [[ $status -ne 2 ]]; then
    echo "FAIL: $* exited $status, want 2" >&2
    failures=$((failures + 1))
  elif [[ $output != *"--$flag"* ]]; then
    echo "FAIL: $* error does not name --$flag: $output" >&2
    failures=$((failures + 1))
  else
    echo "ok: $* rejected: $output"
  fi
}

expect_rejected runs --runs 0
expect_rejected runs --runs -1
expect_rejected runs --runs 1001
expect_rejected runs --runs x
expect_rejected width --width -1
expect_rejected width --width 2
expect_rejected width --width 21
expect_rejected width --width 12abc
expect_rejected rounds --rounds 0
expect_rejected rounds --rounds -3
expect_rejected runs --full --runs 2
expect_rejected width --full --width 12
expect_rejected rounds --full --rounds 3
expect_rejected threads --threads -1
expect_rejected threads --threads x
expect_rejected seed --seed 1x

# In-range values still run.
output=$(timeout -s KILL 120 "$harness" --benchmarks cos --runs 1 --width 6 \
  --rounds 1 --threads 1 2>&1)
status=$?
if [[ $status -ne 0 ]]; then
  echo "FAIL: --runs 1 --width 6 --rounds 1 exited $status: $output" >&2
  failures=$((failures + 1))
else
  echo "ok: in-range scale accepted"
fi

# --full alone resolves to the paper's parameters through the suite's params
# builders. `--benchmarks none` matches no benchmark, so this runs no search.
want="width=16 bound_size=9 rounds=5 Z=30 P(DALTA)=1000 P(BS-SA)=500"
want+=" beams=3 chains=10 runs=10"
output=$(timeout -s KILL 20 "$harness" --full --benchmarks none 2>&1)
status=$?
if [[ $status -ne 0 || $output != *"$want"* ]]; then
  echo "FAIL: --full --benchmarks none exited $status," \
    "want '$want': $output" >&2
  failures=$((failures + 1))
else
  echo "ok: --full prints the paper's scale"
fi

exit $((failures > 0))
