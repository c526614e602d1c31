#!/bin/sh
# Regenerates every golden output into a temp dir and byte-compares it
# against the committed file (and the committed set against the generated
# one). Exits 1 listing every mismatch.
#
#   usage: check.sh BUILD_DIR GOLDEN_DIR
set -eu
here=$(cd "$(dirname "$0")" && pwd)
golden=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
sh "$here/generate.sh" "$1" "$out"

status=0
for f in "$out"/*; do
  name=$(basename "$f")
  if [ ! -f "$golden/$name" ]; then
    echo "golden: $name was generated but is not committed"
    status=1
  elif ! cmp "$golden/$name" "$f"; then
    status=1
  fi
done
for f in "$golden"/*; do
  name=$(basename "$f")
  case "$name" in *.sh) continue ;; esac
  if [ ! -f "$out/$name" ]; then
    echo "golden: $name is committed but was not generated"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "golden: all outputs byte-identical"
exit "$status"
