#!/usr/bin/env bash
# The benchmark's suite command: all five workloads (or --workload W),
# measured pass then traced pass. See README.md.
#   benchmark/run.sh [--seed S] [--workload W] [--seconds T] [--quick]
exec python3 "$(dirname "$0")/run.py" "$@"
