#!/bin/sh
# Require that two source trees give the same outputs on every shipped config.
#
#   .github/scripts/reports-unchanged.sh BASE_TREE HEAD_TREE
#
# Runs each of HEAD_TREE's configs/*.json once with each tree's sources
# (PYTHONPATH=<tree>/src python -m fermicert.cli), then compares the output
# files of the two runs, ignoring lines that contain "timestamp".  Exits 1
# and lists the files that differ, or that only one run wrote.
set -eu
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in base head; do
    eval tree=\$$side
    mkdir "$work/$side"
    for config in "$head"/configs/*.json; do
        PYTHONPATH="$tree/src" python -m fermicert.cli --config "$config" \
            --out "$work/$side" > /dev/null
    done
    for file in "$work/$side"/*; do
        grep -v '"timestamp"' "$file" > "$file.kept" || true
        mv "$file.kept" "$file"
    done
done

if ! diff -rq "$work/base" "$work/head"; then
    echo "outputs differ between $base and $head (lines with \"timestamp\" ignored)"
    exit 1
fi
echo "$(ls "$work/head" | wc -l) output files identical apart from \"timestamp\" lines"
