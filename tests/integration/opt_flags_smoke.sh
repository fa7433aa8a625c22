#!/usr/bin/env bash
# Search-flag validation smoke test for dalut_opt and dalut_suite.
#
# Every out-of-range or malformed search knob must be rejected up front with
# exit status 2 (usage error) and an error naming the flag. `--patterns -1`
# used to wrap to 2^32 - 1 restarts inside a single OptForPart call that
# ignored SIGTERM, so each run is bounded by `timeout`. `--threads` must lie
# in [0, 512] in both search tools (it used to map negative values to
# "hardware" and clamp huge ones). dalut_opt's `--width 27` used to be
# killed for memory and `--width -1` died in std::vector; `--checkpoint-every
# -1` wrapped to 2^32 - 1 and silently never checkpointed. dalut_opt's
# `--tb-vectors -1` wrapped to 2^64 - 1 testbench vectors and grew the
# testbench text until memory ran out, and dalut_suite's `--cache-max -1`
# silently meant an unbounded result cache. dalut_opt's enum and real
# flags parse as suite job fields: `--metric bogus` used to optimize MED
# and exit 0, `--delta abc` went unread under `--arch dalta`, an unknown
# `--algorithm`, `--arch` or `--table-load` exited 1, and DALTA ran
# `--rounds 0` as zero rounds and exited 0. `--med-budget abc` exited 3
# with a bare "stod" under `--sweep-bound` and went unread without it.
# Last, the telemetry
# artifacts and the suite CSV must fail with exit 6 when their output
# cannot be written.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <path-to-dalut_opt> <path-to-dalut_suite>" >&2
  exit 2
fi
dalut_opt=$1
dalut_suite=$2

failures=0
# expect_rejected FLAG VALUE [TOOL ARGS...]: TOOL (default dalut_opt on a
# width-8 run) given `--FLAG VALUE` exits 2 naming the flag. A rejection
# must come before any work, so each case runs under a 2 GiB address-space
# cap: a check that regresses into an unbounded allocation fails here
# instead of exhausting the host's memory.
expect_rejected() {
  local flag=$1 value=$2 output status
  shift 2
  local tool=("$@")
  [[ ${#tool[@]} -eq 0 ]] && tool=("$dalut_opt" --width 8)
  output=$(ulimit -v 2097152
           timeout -s KILL 20 "${tool[@]}" "--$flag" "$value" 2>&1)
  status=$?
  if [[ $status -ne 2 ]]; then
    echo "FAIL: ${tool[0]##*/} --$flag $value exited $status, want 2" >&2
    failures=$((failures + 1))
  elif [[ $output != *"--$flag"* ]]; then
    echo "FAIL: --$flag $value error does not name the flag: $output" >&2
    failures=$((failures + 1))
  else
    echo "ok: ${tool[0]##*/} --$flag $value rejected: $output"
  fi
}

expect_rejected patterns -1
expect_rejected patterns 1048577
expect_rejected patterns 12abc
expect_rejected partitions -1
expect_rejected partitions 1048577
expect_rejected rounds -3
expect_rejected rounds 0
expect_rejected rounds 0 "$dalut_opt" --width 8 --algorithm dalta
expect_rejected rounds 1048577
expect_rejected beams -1
expect_rejected beams 4097
expect_rejected chains -1
expect_rejected chains 4097
expect_rejected bound -1
expect_rejected bound 26
expect_rejected bound x
expect_rejected threads -1
expect_rejected threads 513
expect_rejected threads x
expect_rejected width -1 "$dalut_opt"
expect_rejected width 0 "$dalut_opt"
expect_rejected width 1 "$dalut_opt"
expect_rejected width 27 "$dalut_opt"
expect_rejected width x "$dalut_opt"
expect_rejected checkpoint-every -1
expect_rejected checkpoint-every x
expect_rejected checkpoint-every -1 "$dalut_suite"
expect_rejected threads -1 "$dalut_suite"
expect_rejected threads 513 "$dalut_suite"
expect_rejected tb-vectors -1 "$dalut_opt" --width 8 --testbench-out /dev/null
expect_rejected tb-vectors 1048577 "$dalut_opt" --width 8
expect_rejected tb-vectors x "$dalut_opt" --width 8
expect_rejected cache-max -1 "$dalut_suite"
expect_rejected cache-max x "$dalut_suite"
expect_rejected metric bogus
expect_rejected delta abc "$dalut_opt" --width 8 --arch dalta
expect_rejected delta abc "$dalut_opt" --width 8 --arch bto-normal
expect_rejected delta-prime abc "$dalut_opt" --width 8 --arch bto-normal-nd
expect_rejected med-budget abc
expect_rejected med-budget abc "$dalut_opt" --width 8 --sweep-bound
expect_rejected algorithm bogus
expect_rejected algorithm round-in
expect_rejected arch bogus
expect_rejected table-load bogus
expect_rejected table-load bogus "$dalut_opt" --width 8 \
  --table "$(dirname "$0")/../fixtures/table_v1.dalut"
# Every search range and the rules that span flags are checked before any
# work starts. `--algorithm dalta --partitions 0` used to segfault, BS-SA ran
# `--partitions 0` or `--beams 0` over no partitions and exited 0, and a NaN
# or negative delta went through.
expect_rejected partitions 0 "$dalut_opt" --width 8 --algorithm dalta
expect_rejected partitions 0
expect_rejected patterns 0
expect_rejected beams 0
expect_rejected chains 0
expect_rejected delta nan
expect_rejected delta -1 "$dalut_opt" --width 8 --arch bto-normal
expect_rejected delta-prime inf "$dalut_opt" --width 8 --arch bto-normal-nd
expect_rejected bound 8
expect_rejected rounds 1 "$dalut_opt" --width 8 --arch bto-normal-nd
expect_rejected arch bto-normal "$dalut_opt" --width 8 --algorithm dalta
expect_rejected partitions 0 "$dalut_opt" --width 8 --sweep-bound

# `--resume` without `--checkpoint` is a usage error too (it exited 1).
output=$(timeout -s KILL 20 "$dalut_opt" --width 8 --resume 2>&1)
status=$?
if [[ $status -ne 2 || $output != *"--resume"* ]]; then
  echo "FAIL: --resume without --checkpoint exited $status, want 2: $output" >&2
  failures=$((failures + 1))
else
  echo "ok: --resume without --checkpoint rejected: $output"
fi

# The suite's make-style -jN spelling goes through the same check.
output=$(timeout -s KILL 20 "$dalut_suite" -j-2 2>&1)
status=$?
if [[ $status -ne 2 || $output != *"--threads"* ]]; then
  echo "FAIL: dalut_suite -j-2 exited $status, want 2: $output" >&2
  failures=$((failures + 1))
else
  echo "ok: dalut_suite -j-2 rejected: $output"
fi

# `--width 3` runs, and `--checkpoint-every 0` turns checkpointing off: the
# run saves no checkpoint (a finished run deletes its checkpoint file, so
# the save counter is what tells).
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
output=$(timeout -s KILL 60 "$dalut_opt" --width 3 --partitions 4 \
  --patterns 2 --threads 1 --checkpoint "$scratch/ck" --checkpoint-every 0 \
  --metrics-out "$scratch/metrics.json" 2>&1)
status=$?
if [[ $status -ne 0 ]]; then
  echo "FAIL: --width 3 --checkpoint-every 0 exited $status: $output" >&2
  failures=$((failures + 1))
elif grep -q '"checkpoint.saves": *[1-9]' "$scratch/metrics.json"; then
  echo "FAIL: --checkpoint-every 0 still saved checkpoints" >&2
  failures=$((failures + 1))
else
  echo "ok: --width 3 --checkpoint-every 0 accepted"
fi

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

# An unwritable telemetry artifact exits 6 (I/O error) with a message naming
# the path. /dev/full accepts the open and fails the flush, which these
# writes used to ignore (exit 0, "wrote metrics").
if [[ -w /dev/full ]]; then
  cat > "$scratch/suite.manifest" <<'EOF'
dalut-manifest v1
default width=6 rounds=1 partitions=4 patterns=2
job cos6 benchmark=cos algorithm=bssa seed=1
end
EOF
  expect_io_error() {
    local output status
    output=$(timeout -s KILL 60 "$@" 2>&1)
    status=$?
    if [[ $status -ne 6 ]]; then
      echo "FAIL: ${1##*/} ${*: -2} exited $status, want 6: $output" >&2
      failures=$((failures + 1))
    elif [[ $output != *"/dev/full"* ]]; then
      echo "FAIL: ${1##*/} ${*: -2} error does not name the path: $output" >&2
      failures=$((failures + 1))
    else
      echo "ok: ${1##*/} ${*: -2} failed with exit 6"
    fi
  }
  opt_run=("$dalut_opt" --width 6 --partitions 4 --patterns 2 --threads 1)
  expect_io_error "${opt_run[@]}" --metrics-out /dev/full
  expect_io_error "${opt_run[@]}" --trace-out /dev/full
  expect_io_error "$dalut_suite" --manifest "$scratch/suite.manifest" -j1 \
    --csv-out "$scratch/suite.csv" --metrics-out /dev/full
  expect_io_error "$dalut_suite" --manifest "$scratch/suite.manifest" -j1 \
    --csv-out "$scratch/suite.csv" --trace-out /dev/full
  expect_io_error "$dalut_suite" --manifest "$scratch/suite.manifest" -j1 \
    --csv-out /dev/full
else
  echo "skip: /dev/full is absent"
fi

exit $((failures > 0))
