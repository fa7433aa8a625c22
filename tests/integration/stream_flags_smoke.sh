#!/usr/bin/env bash
# Flag validation smoke test for dalut_stream.
#
# Every malformed count must be rejected up front with exit status 2 (usage
# error, docs/robustness.md) and an error naming the flag. `--batch 0` used
# to hang forever (the producers advanced by producers * batch = 0),
# negative counts died inside std::vector::reserve, and `--seed -1` wrapped
# to a huge seed, so each run is bounded by `timeout`. A malformed
# `--listen` is a usage error too. An `--out` that cannot be opened must exit
# 6 naming the path, before the first measurement: the case runs the
# default-size benchmark under a 10 s bound.
set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <path-to-dalut_stream>" >&2
  exit 2
fi
dalut_stream=$1

failures=0
expect_rejected() {
  local flag=$1 value=$2 output status
  output=$(timeout 20 "$dalut_stream" "--$flag" "$value" --out /dev/null 2>&1)
  status=$?
  if [[ $status -ne 2 ]]; then
    echo "FAIL: --$flag $value exited $status, want 2" >&2
    failures=$((failures + 1))
  elif [[ $output != *"--$flag"* ]]; then
    echo "FAIL: --$flag $value error does not name the flag: $output" >&2
    failures=$((failures + 1))
  else
    echo "ok: --$flag $value rejected: $output"
  fi
}

expect_rejected batch 0
expect_rejected batch -1
expect_rejected producers 0
expect_rejected producers -1
expect_rejected ring 0
expect_rejected reads 0
expect_rejected reads -5
expect_rejected width 0
expect_rejected width 21
expect_rejected width 40
expect_rejected reconfigs -1
expect_rejected batch 12abc
expect_rejected seed -1
expect_rejected seed abc
expect_rejected listen bogus

out=/nonexistent/dir/x.json
output=$(timeout 10 "$dalut_stream" --out "$out" 2>&1)
status=$?
if [[ $status -ne 6 ]]; then
  echo "FAIL: --out $out exited $status, want 6: $output" >&2
  failures=$((failures + 1))
elif [[ $output != *"$out"* ]]; then
  echo "FAIL: --out $out error does not name the path: $output" >&2
  failures=$((failures + 1))
else
  echo "ok: --out $out failed with exit 6: ${output##*$'\n'}"
fi

exit $((failures > 0))
