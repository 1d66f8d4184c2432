#!/bin/sh
# Require that two source trees give the same outputs on every shipped config
# and on every task config of the benchmark's seed 0.
#
#   .github/scripts/reports-unchanged.sh BASE_TREE HEAD_TREE
#
# Runs each of HEAD_TREE's configs/*.json, and each config that HEAD_TREE's
# perfbench/workloads.py makes for seed 0, once with each tree's sources
# (PYTHONPATH=<tree>/src python -m fermicert.cli).  The benchmark configs
# reuse the shipped output prefixes, so the two sets write to output
# directories of their own.  Then compares the output files of the two runs,
# ignoring lines that contain "timestamp".  Exits 1 and lists the files that
# differ, or that only one run wrote.
set -eu
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/bench-configs"
PYTHONPATH="$head/perfbench" python - "$work/bench-configs" <<'EOF'
import json
import sys

import workloads

for workload in workloads.WORKLOADS:
    for i, config in enumerate(workloads.configs(workload, 0)):
        with open(f"{sys.argv[1]}/{workload}-{i}.json", "w") as f:
            json.dump(config, f)
EOF

for side in base head; do
    eval tree=\$$side
    mkdir -p "$work/$side/shipped" "$work/$side/bench"
    for config in "$head"/configs/*.json; do
        PYTHONPATH="$tree/src" python -m fermicert.cli --config "$config" \
            --out "$work/$side/shipped" > /dev/null
    done
    for config in "$work"/bench-configs/*.json; do
        PYTHONPATH="$tree/src" python -m fermicert.cli --config "$config" \
            --out "$work/$side/bench" > /dev/null
    done
    for file in "$work/$side"/*/*; do
        grep -v '"timestamp"' "$file" > "$file.kept" || true
        mv "$file.kept" "$file"
    done
done

if ! diff -rq "$work/base" "$work/head"; then
    echo "outputs differ between $base and $head (lines with \"timestamp\" ignored)"
    exit 1
fi
echo "$(ls "$work/head/shipped" | wc -l) shipped and $(ls "$work/head/bench" | wc -l)" \
    "seed-0 benchmark output files identical apart from \"timestamp\" lines"
