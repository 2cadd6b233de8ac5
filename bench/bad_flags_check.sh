#!/bin/sh
# Command-line check of the load benches (registered with ctest as
# bench.bad_flags in bench/CMakeLists.txt):
#
#   bad_flags_check.sh <serve_load> <net_load> <fleet_load> <knob_ablation>
#
# An unknown flag, a missing value, or a malformed, zero or over-cap count
# must exit 2 before any training starts. Every value tried here is invalid,
# so no run gets as far as starting a thread.
set -u

# expect_2 <bench> <args>...: each <args> string is one command line.
expect_2() {
  bin=$1
  shift
  for args in "$@"; do
    # $args is split into flags and values on purpose.
    $bin $args </dev/null >/dev/null 2>&1
    status=$?
    if [ "$status" -ne 2 ]; then
      echo "FAIL: $(basename "$bin") $args exited $status, expected 2"
      exit 1
    fi
  done
}

for b in "$1" "$2" "$3" "$4"; do
  expect_2 "$b" "--smok" "--out" "--smoke extra" "-smoke"
done
for b in "$1" "$2" "$3"; do
  expect_2 "$b" "--shards" "--shards abc" "--shards 0" "--shards -1" "--shards 2x" \
    "--shards 129"
done
expect_2 "$1" "--tenants 2"
expect_2 "$2" "--tenants 2"
expect_2 "$3" "--tenants" "--tenants 0" "--tenants abc"
expect_2 "$4" "--shards 2" "--tenants 2"
echo "bad bench flags exit 2"
