#!/bin/sh
# serve_check: boot joind on an ephemeral port, drive it with eight
# concurrent sqlrun -server clients, SIGTERM it, and assert a clean drain.
# Run from the repository root (make serve-check does).
set -eu

work=$(mktemp -d)
pid=""
cpids=""
cleanup() {
	for p in $cpids $pid; do kill "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

go build -o "$work/joind" ./cmd/joind
go build -o "$work/sqlrun" ./cmd/sqlrun

"$work/joind" -addr 127.0.0.1:0 -port-file "$work/port" -sf 0.002 \
	-global-mem 67108864 -spill-dir "$work/spill" -drain-grace 10s \
	2>"$work/joind.log" &
pid=$!

i=0
while [ ! -s "$work/port" ]; do
	i=$((i + 1))
	if [ "$i" -gt 300 ]; then
		echo "serve-check: joind never wrote its port file" >&2
		cat "$work/joind.log" >&2
		exit 1
	fi
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "serve-check: joind died during startup" >&2
		cat "$work/joind.log" >&2
		exit 1
	fi
	sleep 0.1
done
addr=$(cat "$work/port")

# The statement mix of tpch.ServeQueries; its dates are days since the
# epoch (1994-01-01 = 8766, 1994-12-31 = 9130).
set -- \
	"SELECT count(*) AS n FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey" \
	"SELECT sum(l_extendedprice) AS rev, count(*) AS n FROM lineitem WHERE l_shipdate BETWEEN 8766 AND 9130 AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24" \
	"SELECT l_returnflag, l_linestatus, sum(l_quantity) AS qty, count(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus" \
	"SELECT o_orderpriority, count(*) AS n FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority"

# client <id> <statement>...: five passes over the mix, retrying sheds with
# the server's Retry-After; the first statement that fails ends the client
# with a nonzero status.
client() {
	id=$1
	shift
	for pass in 1 2 3 4 5; do
		for q in "$@"; do
			"$work/sqlrun" -server "http://$addr" -retry 5 "$q" \
				>/dev/null 2>>"$work/client$id.log" || return 1
		done
	done
}

for c in 1 2 3 4 5 6 7 8; do
	client "$c" "$@" &
	cpids="$cpids $!"
done
failed=0
for p in $cpids; do
	wait "$p" || failed=$((failed + 1))
done
cpids=""
if [ "$failed" != "0" ]; then
	echo "serve-check: $failed of 8 clients failed" >&2
	cat "$work"/client*.log >&2
	exit 1
fi
echo "serve-check: 8 clients x 5 passes x $# statements answered"

kill -TERM "$pid"
if ! wait "$pid"; then
	echo "serve-check: joind exited nonzero after SIGTERM" >&2
	cat "$work/joind.log" >&2
	exit 1
fi
pid=""
if ! grep -q "drained cleanly" "$work/joind.log"; then
	echo "serve-check: no clean drain in joind log" >&2
	cat "$work/joind.log" >&2
	exit 1
fi
echo "serve-check: clean drain confirmed"
