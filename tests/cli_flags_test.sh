#!/usr/bin/env bash
# Malformed numeric flags of nlft-fuzz and nlft-analyze, malformed
# positional arguments of the fault_injection_campaign example, and unknown
# arguments of the benches: every one must exit with status exactly 2 and
# name the flag or argument on stderr. A program that runs with a made-up
# value, crashes or aborts under a sanitizer fails the check.
#
# Usage: cli_flags_test.sh <nlft-fuzz> <nlft-analyze> <fault_injection_campaign>
#          <snapshot_speedup> <rare_event_speedup> <system_fi_campaign>
set -u

fuzz=$1
analyze=$2
campaign=$3
smoke_benches=("$4" "$5")
system_fi=$6
failures=0

# expect_rejected FLAG COMMAND... — COMMAND must exit 2 with "FLAG expects"
# on stderr.
expect_rejected() {
  local flag=$1
  shift
  local err rc
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ] || [[ "$err" != *"$flag expects"* ]]; then
    echo "FAIL: $* -> exit $rc, stderr: $err" >&2
    failures=$((failures + 1))
  fi
}

# Letters, trailing junk, signs, blanks, a fraction, the empty string and a
# value past 64 bits are malformed for every numeric flag.
for bad in abc 1x x1 -3 +3 " 5" 5\  1.5 "" 99999999999999999999999; do
  expect_rejected --budget "$fuzz" --budget "$bad" --seed 1
  expect_rejected --seed "$fuzz" --budget 1 --seed "$bad"
  expect_rejected --threads "$fuzz" --budget 1 --seed 1 --threads "$bad"
  expect_rejected --chunk "$fuzz" --budget 1 --seed 1 --chunk "$bad"
  expect_rejected --cross-check "$analyze" --cross-check "$bad" wheel
  expect_rejected experiments "$campaign" "$bad"
  expect_rejected threads "$campaign" 1 "$bad"
done

# Zero where usage() asks for at least one.
expect_rejected --budget "$fuzz" --budget 0 --seed 1
expect_rejected --cross-check "$analyze" --cross-check 0 wheel
expect_rejected experiments "$campaign" 0

# Overflow of the flag's own type: --threads is 32-bit.
expect_rejected --threads "$fuzz" --budget 1 --seed 1 --threads 4294967296
expect_rejected threads "$campaign" 1 4294967296

# expect_usage TEXT COMMAND... — COMMAND must exit 2 with a usage line and
# TEXT on stderr, and print nothing on stdout: the benches print before their
# first campaign, so an empty stdout shows that none started. The timeout
# stops a bench that runs anyway.
expect_usage() {
  local text=$1
  shift
  local out err rc
  err=$(mktemp)
  out=$(timeout 60 "$@" 2>"$err")
  rc=$?
  if [ "$rc" -ne 2 ] || [ -n "$out" ] || ! grep -qF -- "$text" "$err" ||
    ! grep -q "^usage: " "$err"; then
    echo "FAIL: $* -> exit $rc, stdout: ${out:0:200}, stderr: $(cat "$err")" >&2
    failures=$((failures + 1))
  fi
  rm -f "$err"
}

# A misspelt or decorated --smoke, a stray word and another bench's flag are
# unknown to every bench that takes only --smoke.
for bench in "${smoke_benches[@]}"; do
  for bad in --smok -smoke smoke --smoke=1 --SMOKE --trace ""; do
    expect_usage "unknown argument '$bad'" "$bench" "$bad"
  done
  expect_usage "unknown argument 'extra'" "$bench" --smoke extra
done

# system_fi_campaign takes only --trace with a path.
expect_usage "--trace expects an output path" "$system_fi" --trace
expect_usage "--trace expects an output path" "$system_fi" --trace ""
for bad in --smoke --tarce trace.json -- ""; do
  expect_usage "unknown argument '$bad'" "$system_fi" "$bad"
done
expect_usage "unknown argument 'extra'" "$system_fi" --trace stop.json extra

if [ "$failures" -ne 0 ]; then
  echo "$failures malformed flag(s) not rejected" >&2
  exit 1
fi
echo "every malformed flag or unknown argument exits 2 and names it"
