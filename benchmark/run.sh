#!/bin/sh
# The benchmark's single entry point for paired runs: build once, then one
# process per (workload, seed) — the way the driver runs it — untraced for
# seeds 1..RUNS, then one traced run per workload, all appended to one
# result file that `benchmark -compare` reads.
#
#   benchmark/run.sh [RUNS [RESULT_FILE]]     default: 10 benchmark/out/result.json
#   WORKLOADS="micro_join tpch_engine" benchmark/run.sh 3     only those workloads
set -eu
cd "$(dirname "$0")/.."
runs=${1:-10}
out=${2:-benchmark/out/result.json}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p benchmark/out "$(dirname "$out")"
bin=benchmark/out/benchmark.bin
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -o "$bin" ./benchmark
rm -f "$out"
for w in ${WORKLOADS:-$("$bin" -list)}; do
	seed=1
	while [ "$seed" -le "$runs" ]; do
		"$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -commit "$commit" -out "$out" | sed '$d'
		seed=$((seed + 1))
	done
	"$bin" -workload "$w" -seed 1 -seconds "$seconds" -trace 1 -commit "$commit" -out "$out" | sed '$d'
done
echo "wrote $out"
