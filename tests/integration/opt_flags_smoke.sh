#!/usr/bin/env bash
# Search-flag validation smoke test for dalut_opt.
#
# Every out-of-range or malformed search knob must be rejected up front with
# exit status 2 (usage error) and an error naming the flag. `--patterns -1`
# used to wrap to 2^32 - 1 restarts inside a single OptForPart call that
# ignored SIGTERM, so each run is bounded by `timeout`.
set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <path-to-dalut_opt>" >&2
  exit 2
fi
dalut_opt=$1

failures=0
expect_rejected() {
  local flag=$1 value=$2 output status
  output=$(timeout -s KILL 20 "$dalut_opt" --width 8 "--$flag" "$value" 2>&1)
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

expect_rejected patterns -1
expect_rejected patterns 1048577
expect_rejected patterns 12abc
expect_rejected partitions -1
expect_rejected partitions 1048577
expect_rejected rounds -3
expect_rejected rounds 1048577
expect_rejected beams -1
expect_rejected beams 4097
expect_rejected chains -1
expect_rejected chains 4097
expect_rejected bound -1
expect_rejected bound 26
expect_rejected bound x

# The manifest's upper limits themselves are accepted.
output=$(timeout -s KILL 60 "$dalut_opt" --width 8 --bound 4 --rounds 1 \
  --partitions 4 --patterns 2 --beams 4096 --chains 1 --threads 1 2>&1)
status=$?
if [[ $status -ne 0 ]]; then
  echo "FAIL: in-range knobs exited $status: $output" >&2
  failures=$((failures + 1))
else
  echo "ok: in-range knobs accepted"
fi

exit $((failures > 0))
