#!/bin/sh
# Tier-1 check of the perf gate on the committed baselines:
#   sh bench_check_test.sh BENCH_CHECK_EXE BASELINE_DIR
# Every hard failure the gate raises must still raise (exit 1), every
# committed baseline must pass against itself (exit 0), and a hard limit
# only WARNs across scales.  Silent unless a check fails.
set -u
case $1 in */*) gate=$1 ;; *) gate=./$1 ;; esac
dir=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0

# expect CODE PATTERN DESCRIPTION ARG...: run the gate on ARG..., which
# must exit CODE and print a line matching PATTERN
expect() {
  want=$1
  pattern=$2
  what=$3
  shift 3
  "$gate" "$@" > "$tmp/out" 2>&1
  got=$?
  if [ "$got" -ne "$want" ] || ! grep -q "$pattern" "$tmp/out"; then
    echo "FAILED: $what: exit $got (expected $want, with a line matching '$pattern')"
    cat "$tmp/out"
    failed=1
  fi
}

# first_sub FROM TO < IN > OUT: replace the first FROM (a literal) only
first_sub() {
  awk -v from="$1" -v to="$2" '
    !done && (i = index($0, from)) {
      $0 = substr($0, 1, i - 1) to substr($0, i + length(from)); done = 1
    }
    { print }'
}

for f in "$dir"/*.json; do
  b=$(basename "$f" .json)
  expect 0 '^bench_check: OK' "$b against itself" "$f=$f"
  first_sub '"bit_identical": true' '"bit_identical": false' < "$f" > "$tmp/$b.false.json"
  expect 1 '^FAIL: .*outputs diverged' "$b with one false identity bit" "$tmp/$b.false.json=$f"
  grep -q '"hard": [0-9]' "$f" || continue
  # the first entry with a hard limit, at 4x its baseline value, then
  # the same entry gone
  awk '
    !done && /"hard": [0-9]/ && match($0, /"value": [-0-9.e+]+/) {
      v = substr($0, RSTART + 9, RLENGTH - 9)
      $0 = substr($0, 1, RSTART - 1) "\"value\": " (v * 4) substr($0, RSTART + RLENGTH)
      done = 1
    }
    { print }' < "$f" > "$tmp/$b.4x.json"
  expect 1 '^FAIL: .*hard limit 3x' "$b with a hard entry at 4x" "$tmp/$b.4x.json=$f"
  first_sub '"scale": "small"' '"scale": "other"' < "$tmp/$b.4x.json" > "$tmp/$b.scale.json"
  expect 0 '^WARN: .*no hard limit across scales' \
    "$b with a hard entry at 4x at another scale" "$tmp/$b.scale.json=$f"
  awk '!done && /"hard": [0-9]/ { done = 1; next } { print }' < "$f" > "$tmp/$b.missing.json"
  expect 1 '^FAIL: .*is missing from the fresh artifact' "$b missing a baseline metric" \
    "$tmp/$b.missing.json=$f"
done

# the 10 ms floor: a measured 1 ms latency at 4x only WARNs, at 20x fails
art() {
  printf '{"schema": "spnc-bench-v1", "checks": [{"name": "c", "bit_identical": true}], '
  printf '"entries": [{"metric": "m", "unit": "ms", "value": %s, "kind": "measured", ' "$1"
  printf '"better": "lower", "bound": 0.25, "hard": 3}]}\n'
}
art 1 > "$tmp/1ms.json"
art 4 > "$tmp/4ms.json"
art 20 > "$tmp/20ms.json"
expect 0 '^WARN: .*bound 25%' "a 3 ms blowup under the 10 ms floor" "$tmp/4ms.json=$tmp/1ms.json"
expect 1 '^FAIL: .*hard limit 3x' "a 19 ms blowup past the floor" "$tmp/20ms.json=$tmp/1ms.json"

leader="$dir/PASSORDER_cpu.json"
first_sub '"bit_identical": true' '"no_bit": true' < "$leader" > "$tmp/nobit.json"
expect 1 '^FAIL: .*no bit_identical in' "leaderboard entry without bit_identical" "$tmp/nobit.json"
printf '{"schema": "spnc-passorder-v1", "entries": []}\n' > "$tmp/empty.json"
expect 1 '^FAIL: .*entries list is empty' "empty leaderboard" "$tmp/empty.json"
first_sub '"spnc-passorder-v1"' '"spnc-passorder-v0"' < "$leader" > "$tmp/schema.json"
expect 1 '^FAIL: .*schema spnc-passorder-v0 is not one of' "unknown schema" "$tmp/schema.json"
printf '{"schema": "spnc-dse-v1", "candidates": [{"bit_identical": null}]}\n' > "$tmp/unmeasured.json"
expect 1 '^FAIL: .*no bit_identical is true' "no identity bit measured" "$tmp/unmeasured.json"
printf '{"schema": ' > "$tmp/broken.json"
expect 1 '^FAIL: .*cannot read' "unreadable artifact" "$tmp/broken.json"
expect 1 '^FAIL: .*without a fresh artifact' "baseline without a fresh artifact" "=$leader"
expect 2 'nothing to check' "nothing to check"
exit $failed
