#!/bin/sh
# Writes every golden output into OUT_DIR, running the binaries of the
# CMake build tree BUILD_DIR. Each file is a deterministic, simulation-domain
# output: Prometheus bodies, window series, forensics and chaos JSON,
# bench JSON and metrics, and example stdout.
#
#   usage: generate.sh BUILD_DIR OUT_DIR
#
# check.sh compares these against the committed files in tests/golden/.
# To regenerate the committed files (only in a change that means to alter
# an output; see DESIGN.md §6): generate.sh build tests/golden
set -eu
build=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"

scope="$build/tools/hydrascope"
stat="$build/tools/hydrastat"

"$scope" --scenario leafspine --prom scope_leafspine.prom \
  --series scope_leafspine_series.json --out scope_leafspine.json \
  > scope_leafspine.stdout
"$scope" --chaos 7 --out scope_chaos7.json > scope_chaos7.stdout
"$scope" --forensics --scenario aether --min-violations 1 \
  --out scope_forensics_aether.json > scope_forensics_aether.stdout

"$stat" --scenario aether --prom stat_aether.prom --out stat_aether.json \
  > /dev/null
"$stat" --scenario leafspine --prom stat_leafspine.prom \
  --out stat_leafspine.json > /dev/null
"$stat" --chaos 7 --prom stat_chaos7.prom --out stat_chaos7.json > /dev/null

"$build/bench/chaos_soak" --json chaos_soak.json > /dev/null
# The bench JSON carries wall-clock numbers; only --metrics is golden.
"$build/bench/million_users" --sessions 10000 --churn-per-s 500 \
  --packets-per-s 20000 --duration-s 0.2 \
  --metrics million_users_metrics.txt --json million_users.wall.json \
  > /dev/null
rm -f million_users.wall.json

# hydrad's full-state snapshot: a fresh run's shutdown file, then a restart
# that restores a copy of it, runs 0.02 s more and rewrites it. Stale files
# are removed first, or the first run would restore one.
rm -f hydrad_full.snap hydrad_restart.snap
hydrad() {
  "$build/tools/hydrad" --listen 0 --interval 0.001 --pace 1000 \
    --sessions 20 --churn-per-s 200 --packets-per-s 5000 --duration-s 0.02 \
    --ring 4 --snapshot "$1" > /dev/null
}
hydrad hydrad_full.snap
cp hydrad_full.snap hydrad_restart.snap
hydrad hydrad_restart.snap

for ex in quickstart stateful_firewall source_routing_validation \
          aether_app_filtering ltlf_properties; do
  "$build/examples/$ex" > "example_$ex.stdout"
done
