#!/bin/sh
# Command-line checks of rafiki_serverd (registered with ctest in
# tools/CMakeLists.txt):
#
#   serverd_check.sh <rafiki_serverd> bad-flags
#       every malformed numeric flag value exits 2 before any training
#   serverd_check.sh <rafiki_serverd> drain
#       a 2-shard, 2-tenant server on an ephemeral port drains on stdin EOF,
#       exits 0 and prints its request, wire and fleet-admission sections
set -u
bin=$1

case $2 in
  bad-flags)
    for args in "--workers -1" "--port abc" "--port 70000" "--io-threads 2x"; do
      # $args is split into flag and value on purpose.
      $bin $args </dev/null >/dev/null 2>&1
      status=$?
      if [ "$status" -ne 2 ]; then
        echo "FAIL: rafiki_serverd $args exited $status, expected 2"
        exit 1
      fi
    done
    echo "malformed flag values exit 2"
    ;;
  drain)
    out=$($bin --port 0 --shards 2 --tenants 2 </dev/null)
    status=$?
    if [ "$status" -ne 0 ]; then
      echo "$out"
      echo "FAIL: drain exited $status, expected 0"
      exit 1
    fi
    for section in "=== request stats ===" "=== wire stats ===" "=== fleet admission ==="; do
      if ! printf '%s\n' "$out" | grep -qF -- "$section"; then
        echo "$out"
        echo "FAIL: drain report has no '$section' section"
        exit 1
      fi
    done
    echo "drain report complete"
    ;;
  *)
    echo "usage: $0 <rafiki_serverd> bad-flags|drain"
    exit 2
    ;;
esac
