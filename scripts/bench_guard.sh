#!/bin/sh
# bench_guard: fail when a scan or join microbenchmark regresses more than
# 10% against the committed baseline (scripts/bench_baseline.txt), in time
# (ns/op) or, for the joins, in allocation (B/op).
#
# Each benchmark runs -count reps and the best rep is compared: the fastest
# run is the least-noisy estimate of the kernel's true cost, so a
# regression must survive best-of-N to count — wall-clock jitter on a
# loaded CI box does not fail the build, a real kernel slowdown does (five
# reps: BenchmarkJoinBHJ runs ~1.7x slower while a concurrent GC cycle holds
# one of two cores, and three reps can all land there). B/op
# repeats almost exactly once the page pool is warm (the first of the five
# iterations fills it), so the same best-of-N catches a join that starts
# allocating its partitions per query again.
#
# Regenerate the baseline after an intentional perf change (run on the
# machine whose numbers the baseline records):
#
#	BENCH_BASELINE_UPDATE=1 sh scripts/bench_guard.sh
#
# Run from the repository root (make bench-guard does).
set -eu

baseline=scripts/bench_baseline.txt
tolerance=110 # percent of baseline allowed before failing
slack=4096    # bytes/op on top, so a near-zero B/op baseline survives a stray allocation

out=$(go test -bench 'BenchmarkScan|BenchmarkJoin(BHJ|RJ|BRJ)$' -benchmem -benchtime 5x -count 5 -run '^$' .)
best=$(printf '%s\n' "$out" | awk '
	/^Benchmark(Scan|Join)/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
		ns = $3
		for (i = 4; i <= NF; i++) if ($i == "B/op") bop = $(i - 1)
		if (!(name in t) || ns < t[name]) t[name] = ns
		if (!(name in a) || bop < a[name]) a[name] = bop
	}
	END { for (n in t) printf "%s %.0f %.0f\n", n, t[n], a[n] }' | sort)
if [ -z "$best" ]; then
	echo "bench-guard: no benchmark results parsed" >&2
	printf '%s\n' "$out" >&2
	exit 1
fi

if [ "${BENCH_BASELINE_UPDATE:-0}" = "1" ]; then
	printf '%s\n' "$best" >"$baseline"
	echo "bench-guard: baseline rewritten (name, ns/op, B/op):"
	cat "$baseline"
	exit 0
fi

if [ ! -f "$baseline" ]; then
	echo "bench-guard: $baseline missing; run BENCH_BASELINE_UPDATE=1 sh scripts/bench_guard.sh" >&2
	exit 1
fi

fail=0
while read -r name ns bop; do
	base=$(awk -v n="$name" '$1 == n { print $2, $3 }' "$baseline")
	if [ -z "$base" ]; then
		echo "bench-guard: $name not in baseline; rerun with BENCH_BASELINE_UPDATE=1" >&2
		fail=1
		continue
	fi
	base_ns=${base% *}
	base_bop=${base#* }
	# The scans' few dozen KiB of per-query set-up vary by more than 10%
	# from run to run; only the joins' B/op is a stable count.
	case $name in
	BenchmarkJoin*) check_bop=$bop ;;
	*) check_bop=0 ;;
	esac
	if [ $((ns * 100)) -gt $((base_ns * tolerance)) ]; then
		echo "bench-guard: FAIL $name: $ns ns/op vs baseline $base_ns ns/op (> ${tolerance}%)" >&2
		fail=1
	elif [ $((check_bop * 100)) -gt $(((base_bop + slack) * tolerance)) ]; then
		echo "bench-guard: FAIL $name: $bop B/op vs baseline $base_bop B/op (> ${tolerance}%)" >&2
		fail=1
	else
		echo "bench-guard: ok   $name: $ns ns/op, $bop B/op vs baseline $base_ns ns/op, $base_bop B/op"
	fi
done <<EOF
$best
EOF
exit $fail
