# Tier-1 gate: everything a change must pass before it lands. The fault
# injection suite runs twice to catch armed-fault leakage across runs, and
# the stress target hammers the spill and fault paths under the race
# detector.
.PHONY: check build test race faultinject vet bench bench-scan bench-join bench-spine bench-compare stress soak serve-check cluster-check store-check fmtcheck

check: vet build race faultinject stress soak serve-check cluster-check store-check

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

# The adaptive-join differential suite is CPU-hungry under the race
# detector; raise the per-package timeout so single-core CI boxes pass.
race:
	go test -race -timeout 45m ./...

faultinject:
	go test -run TestFaultInjection -count=2 ./...

bench:
	go test -bench=. -benchtime=1x -run '^$$' .

# bench-scan smoke-tests the scan-layer microbenchmarks (zone-map pruning,
# predicate pushdown) with a single iteration each.
bench-scan:
	go test -bench 'BenchmarkScan' -benchtime=1x -run '^$$' .

# bench-join runs the join-path microbenchmarks with allocation reporting:
# the end-to-end joins plus the staged-probe, SWWCB-scatter and
# partition-join kernels (one partition pair as one chunk and as pages), and
# the group-by kernel beside them. The hot loops are expected to report 0
# allocs/op at steady state.
bench-join:
	go test -bench 'BenchmarkJoin' -benchmem -benchtime=1x -run '^$$' .
	go test -bench 'BenchmarkProbe|BenchmarkScatter|BenchmarkJoinPartition' -benchmem -run '^$$' ./internal/core/
	go test -bench 'BenchmarkGroupBy' -benchmem -run '^$$' ./internal/exec/

# bench-spine measures this commit on the benchmark spine (ten seeds per
# workload plus a traced run) into benchmark/out/<commit>.json; bench-compare
# sets two such files side by side: make bench-compare A=old.json B=new.json
bench-spine:
	sh benchmark/run.sh 10 benchmark/out/$$(git rev-parse --short HEAD).json

bench-compare:
	go run ./benchmark -compare $(A) $(B)

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# stress repeats the spill and fault-injection suites under the race
# detector: disk-backed degradation must stay exact and leak-free across
# reruns, not just on a lucky first pass.
stress: fmtcheck
	go test -race -count=3 ./internal/spill/ ./internal/faultinject/
	go test -race -timeout 45m -count=3 -run 'Spill|FaultInjection' \
		./internal/plan/ ./internal/exec/

# soak repeats the multi-query admission suite under the race detector:
# concurrent queries contending for one broker must end correct, shed, or
# watchdog-killed — never wrong, leaked, or deadlocked. The server half
# covers the query service: concurrent sessions streaming against one tight
# broker, with sheds, disconnects, and watchdog kills, and 32 TPC-H clients
# shedding and retrying against two admission slots.
soak:
	go test -race -timeout 45m -count=2 -run 'Soak|Broker|Watchdog|ConcurrencySoak' \
		./internal/admit/ ./internal/plan/ ./internal/bench/ ./internal/server/

# serve-check boots joind on an ephemeral port, load-tests it with eight
# concurrent sqlrun -server clients, SIGTERMs it, and asserts a clean drain
# with a balanced admission pool.
serve-check:
	sh scripts/serve_check.sh

# cluster-check boots a 3-shard fleet plus a coordinator on ephemeral
# ports, runs a chaos smoke (armed connect fault, shard kill -> typed 503,
# restart -> recovery), and asserts clean drains everywhere.
cluster-check:
	sh scripts/cluster_check.sh

# store-check is the persistence round trip: cold boot with -data-dir
# (generate + background store write), clean drain, warm boot that must
# open the column store instead of regenerating and answer the same
# queries byte-identically through the buffer pool.
store-check:
	sh scripts/store_check.sh
