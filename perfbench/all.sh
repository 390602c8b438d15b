#!/bin/sh
# Run every workload end to end and then traced, with one seed.
#   sh perfbench/all.sh [seed] [seconds]
# Run from the root of the source checkout.
set -e
for workload in chain-queries sweeps verify cli; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-30}" --trace 0
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-30}" --trace 1
done
