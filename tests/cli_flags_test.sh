#!/usr/bin/env bash
# Malformed numeric flags of nlft-fuzz and nlft-analyze: every one must exit
# with status exactly 2 and name the flag on stderr. A tool that runs with a
# made-up value, crashes or aborts under a sanitizer fails the check.
#
# Usage: cli_flags_test.sh <nlft-fuzz> <nlft-analyze>
set -u

fuzz=$1
analyze=$2
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
  expect_rejected --resume-split "$fuzz" --fingerprint missing-case.json --resume-split "$bad"
  expect_rejected --cross-check "$analyze" --cross-check "$bad" wheel
done

# Zero where usage() asks for at least one.
expect_rejected --budget "$fuzz" --budget 0 --seed 1
expect_rejected --cross-check "$analyze" --cross-check 0 wheel

# Overflow of the flag's own type: --threads is 32-bit, --resume-split a
# signed 64-bit count of microseconds.
expect_rejected --threads "$fuzz" --budget 1 --seed 1 --threads 4294967296
expect_rejected --resume-split "$fuzz" --fingerprint missing-case.json \
  --resume-split 9223372036854775808

if [ "$failures" -ne 0 ]; then
  echo "$failures malformed flag(s) not rejected" >&2
  exit 1
fi
echo "every malformed flag exits 2 and names the flag"
