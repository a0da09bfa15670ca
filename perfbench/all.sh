#!/bin/sh
# Run every workload in turn; extra arguments (--seed, --seconds, --trace)
# are passed to each run. Run from the repository root:
#     sh perfbench/all.sh [--seed N] [--seconds S] [--trace 0|1]
set -e
for workload in suite quickstart memorize; do
    python3 perfbench/run.py --workload "$workload" "$@"
done
