#!/bin/sh
# Byte-identity check of the paper experiments against another checkout.
#
# Usage: sh scripts/compare_experiments.sh PARENT_DIR
#
# Runs `python -m repro.cli experiment ID` for every ID that
# `python -m repro.cli experiments` lists in this checkout, except
# `table2-scaling` (it prints measured wall-clock times, which differ
# from run to run), once in PARENT_DIR and once here, each on its own
# `src/`. It diffs each pair of outputs (stdout) and exits 1 when any
# experiment printed different output or failed on either side, 0 when
# all of them are byte-identical. A change to the simulated cost plane
# that must not move any figure is checked this way.
#
# The runs are sequential: table5 alone holds about 2.3 GB. The whole
# comparison takes about half an hour on a 2-vCPU host (fig7-knl alone
# about two minutes per side), so check.sh does not run it.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 PARENT_DIR" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
here="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -d "$parent/src/repro" ]; then
    echo "compare: $parent has no src/repro" >&2
    exit 2
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# run DIR ID FILE: the experiment's stdout in FILE, stderr in FILE.err.
run() {
    (cd "$1" && PYTHONPATH=src python -m repro.cli experiment "$2") \
        > "$3" 2> "$3.err"
}

ids="$(cd "$here" && PYTHONPATH=src python -m repro.cli experiments)"
status=0
for id in $ids; do
    if [ "$id" = "table2-scaling" ]; then
        continue
    fi
    parent_status=0
    run "$parent" "$id" "$out/parent" || parent_status=$?
    here_status=0
    run "$here" "$id" "$out/here" || here_status=$?
    if [ "$parent_status" -ne 0 ] || [ "$here_status" -ne 0 ]; then
        echo "compare: $id FAILED (exit parent=$parent_status here=$here_status)"
        tail -n 5 "$out/parent.err" "$out/here.err"
        status=1
    elif cmp -s "$out/parent" "$out/here"; then
        echo "compare: $id identical"
    else
        echo "compare: $id DIFFERS"
        diff -u "$out/parent" "$out/here" | head -n 40 || true
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "compare: every experiment is byte-identical"
fi
exit "$status"
