#!/usr/bin/env bash
# Flag validation smoke test for dalut_stream.
#
# Every malformed count must be rejected up front with exit status 1 and an
# error naming the flag. `--batch 0` used to hang forever (the producers
# advanced by producers * batch = 0) and negative counts died inside
# std::vector::reserve, so each run is bounded by `timeout`.
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
  if [[ $status -ne 1 ]]; then
    echo "FAIL: --$flag $value exited $status, want 1" >&2
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

exit $((failures > 0))
