#!/bin/sh
# Require that two source trees give the same outputs on every shipped config
# and on every task config of the benchmark's seed 0, apart from the changes
# that HEAD_TREE declares.
#
#   .github/scripts/reports-unchanged.sh BASE_TREE HEAD_TREE
#
# Runs each of HEAD_TREE's configs/*.json, and each config that HEAD_TREE's
# perfbench/workloads.py makes for seed 0, once with each tree's sources
# (PYTHONPATH=<tree>/src python -m fermicert.cli).  The benchmark configs
# reuse the shipped output prefixes, so the two sets write to output
# directories of their own (shipped/ and bench/).  Then compares the output
# files of the two runs with .github/scripts/compare-outputs.py: byte for
# byte, ignoring lines that contain "timestamp", except for the fields that
# HEAD_TREE's .github/declared-output-changes.json names, each within its
# bound.  That manifest applies only when its "base" is the commit checked
# out in BASE_TREE; otherwise the comparison is fully byte-strict.  Exits 1
# and lists the files that differ beyond the declared changes, or that only
# one run wrote.
set -eu
base=$(cd "$1" && pwd -P)
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
done

# the commit of BASE_TREE, if BASE_TREE is the top of a git checkout
base_commit=none
if [ "$(git -C "$base" rev-parse --show-toplevel 2>/dev/null)" = "$base" ]; then
    base_commit=$(git -C "$base" rev-parse HEAD)
fi
python "$head/.github/scripts/compare-outputs.py" "$work/base" "$work/head" \
    "$base_commit" "$head/.github/declared-output-changes.json"
