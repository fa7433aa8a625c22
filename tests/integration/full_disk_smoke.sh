#!/usr/bin/env bash
# Full-disk smoke test: a tool whose report goes to /dev/full must exit 6
# (I/O error) with an error naming the path. A full disk surfaces only when
# stdio flushes the buffered report, so a tool that ignores fclose()'s
# result exits 0 having written nothing.
#
# usage: full_disk_smoke.sh <tool> [args...]   (the script adds --out)
set -uo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <tool> [args...]" >&2
  exit 2
fi

output=$(timeout 120 "$@" --out /dev/full 2>&1 >/dev/null)
status=$?
if [[ $status -ne 6 ]]; then
  echo "FAIL: $* --out /dev/full exited $status, want 6: $output" >&2
  exit 1
fi
if [[ $output != *"/dev/full"* ]]; then
  echo "FAIL: the error does not name /dev/full: $output" >&2
  exit 1
fi
echo "ok: $(basename "$1") --out /dev/full exited 6: ${output##*$'\n'}"
