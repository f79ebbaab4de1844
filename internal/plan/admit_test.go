package plan

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"partitionjoin/internal/admit"
	"partitionjoin/internal/core"
	"partitionjoin/internal/exec"
	"partitionjoin/internal/faultinject"
)

// brokerBalanced asserts no reservation leaked out of a finished workload.
func brokerBalanced(t *testing.T, b *admit.Broker) {
	t.Helper()
	if got := b.InUse(); got != 0 {
		t.Fatalf("broker imbalance after all queries finished: %d bytes still reserved", got)
	}
	if b.Pool() > 0 && b.Free() != b.Pool() {
		t.Fatalf("broker free %d != pool %d", b.Free(), b.Pool())
	}
}

func TestBrokerAdmissionRoundTrip(t *testing.T) {
	build, probe := makeTables(4000, 20000, 5000, 7)
	node := joinPlan(build, probe, core.Inner)
	want := resultRows(Execute(DefaultOptions(), node).Result)
	sortRows(want)

	broker := admit.NewBroker(admit.Config{GlobalMem: 64 << 20})
	defer broker.Close()
	opts := optsWith(RJ)
	opts.MemBudget = 32 << 20
	opts.Broker = broker
	res, err := ExecuteErr(context.Background(), opts, node)
	if err != nil {
		t.Fatal(err)
	}
	got := resultRows(res.Result)
	sortRows(got)
	if !rowsEqual(got, want) {
		t.Fatal("admitted query returned a different result")
	}
	if res.Reserved != 32<<20 {
		t.Fatalf("ExecResult.Reserved = %d, want the 32 MiB reservation", res.Reserved)
	}
	brokerBalanced(t, broker)
}

func TestBrokerShedSurfacesOverloaded(t *testing.T) {
	build, probe := makeTables(2000, 10000, 3000, 11)
	// MaxWait < 0: anything that cannot be admitted on arrival is shed.
	broker := admit.NewBroker(admit.Config{GlobalMem: 1 << 20, MaxWait: -1})
	defer broker.Close()
	hold, _, err := broker.Admit(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	opts := optsWith(RJ)
	opts.MemBudget = 1 << 20
	opts.Broker = broker
	_, err = ExecuteErr(context.Background(), opts, joinPlan(build, probe, core.Inner))
	if !errors.Is(err, admit.ErrOverloaded) {
		t.Fatalf("exhausted pool returned %v, want ErrOverloaded", err)
	}
	var oe *admit.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error carries no backoff: %v", err)
	}
	hold.Release()
	brokerBalanced(t, broker)
}

// TestConcurrentExecuteSharedBroker is the in-package half of the
// concurrency soak: N queries share one broker whose pool is smaller than
// their combined working sets, with spill armed, one query cancelled
// mid-run, and one worker panic injected. Every query must end in exactly
// one of: correct result, ErrOverloaded, its own cancellation, or the
// injected panic — and the panic must not poison its neighbours. Runs
// under -race in the soak gate.
func TestConcurrentExecuteSharedBroker(t *testing.T) {
	faultinject.FailOnLeak(t)
	build, probe := makeTables(30000, 120000, 1_000_000, 13)
	node := joinPlan(build, probe, core.Inner)
	want := resultRows(Execute(DefaultOptions(), node).Result)
	sortRows(want)

	const queries = 8
	// Per-query budget 256 KiB against a ~720 KiB build side: every
	// admitted query has to degrade or spill. Pool of 1 MiB admits ~4 at
	// a time; the rest queue.
	broker := admit.NewBroker(admit.Config{GlobalMem: 1 << 20, QueueDepth: queries, MaxWait: 30 * time.Second})
	defer broker.Close()
	spillParent := t.TempDir()

	// Exactly one worker somewhere gets a mid-stream panic.
	faultinject.Arm(t, exec.MorselSite, faultinject.Fault{
		Kind: faultinject.Panic, After: 5, Message: "injected neighbour panic", Once: true,
	})

	cancelCtx, cancelOne := context.WithCancel(context.Background())
	defer cancelOne()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancelOne()
	}()

	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var correct, overloaded, cancelled, panicked int
	var unexpected []error
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			opts := optsWith(RJ)
			opts.Workers = 2
			opts.MemBudget = 256 << 10
			opts.SpillDir = spillParent
			opts.Broker = broker
			ctx := context.Background()
			if q == 0 {
				ctx = cancelCtx
			}
			res, err := ExecuteErr(ctx, opts, node)
			mu.Lock()
			defer mu.Unlock()
			var inj *faultinject.Injected
			switch {
			case err == nil:
				got := resultRows(res.Result)
				sortRows(got)
				if !rowsEqual(got, want) {
					unexpected = append(unexpected, errors.New("wrong answer under concurrency"))
					return
				}
				correct++
			case errors.Is(err, admit.ErrOverloaded):
				overloaded++
			case q == 0 && errors.Is(err, context.Canceled):
				cancelled++
			case errors.As(err, &inj):
				panicked++
			default:
				unexpected = append(unexpected, err)
			}
		}(q)
	}
	wg.Wait()

	for _, err := range unexpected {
		t.Errorf("unexpected outcome: %v", err)
	}
	if panicked > 1 {
		t.Fatalf("one injected panic poisoned %d queries", panicked)
	}
	if correct == 0 {
		t.Fatal("no query completed correctly under shared admission")
	}
	if correct+overloaded+cancelled+panicked != queries {
		t.Fatalf("outcomes %d correct + %d overloaded + %d cancelled + %d panicked != %d queries",
			correct, overloaded, cancelled, panicked, queries)
	}
	brokerBalanced(t, broker)
	requireEmptyDir(t, spillParent)
	expectGoroutines(t, base)
}

// TestWatchdogCancelsStalledQuery stalls one worker mid-morsel far longer
// than the stall window; the broker's watchdog must cancel the query with
// ErrStalled (which ends the stall) and reclaim its reservation.
func TestWatchdogCancelsStalledQuery(t *testing.T) {
	faultinject.FailOnLeak(t)
	build, probe := makeTables(2000, 200000, 3000, 9)
	broker := admit.NewBroker(admit.Config{
		GlobalMem: 64 << 20, StallWindow: 40 * time.Millisecond, WatchdogInterval: 10 * time.Millisecond,
	})
	defer broker.Close()
	faultinject.Arm(t, exec.MorselSite, faultinject.Fault{
		Kind: faultinject.Stall, Stall: 30 * time.Second, After: 1, Once: true,
	})

	opts := optsWith(BHJ)
	opts.MemBudget = 1 << 20
	opts.Broker = broker
	start := time.Now()
	_, err := ExecuteErr(context.Background(), opts, joinPlan(build, probe, core.Inner))
	if !errors.Is(err, admit.ErrStalled) {
		t.Fatalf("stalled query returned %v, want ErrStalled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled query took %v to be cancelled", elapsed)
	}
	if broker.StallKills() == 0 {
		t.Fatal("watchdog recorded no kill")
	}
	brokerBalanced(t, broker)
}

// TestBrokerGrowsReservationBeforeDegrading: with the pool otherwise idle,
// a query whose initial reservation is too small for the radix join draws
// the deficit from the pool instead of falling back to BHJ.
func TestBrokerGrowsReservationBeforeDegrading(t *testing.T) {
	build, probe := makeTables(30000, 120000, 1_000_000, 13)
	node := joinPlan(build, probe, core.Inner)
	broker := admit.NewBroker(admit.Config{GlobalMem: 256 << 20})
	defer broker.Close()
	opts := optsWith(RJ)
	opts.MemBudget = 256 << 10 // far below the radix working set
	opts.Broker = broker
	res, err := ExecuteErr(context.Background(), opts, node)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reserved <= 256<<10 {
		t.Fatalf("reservation did not grow: %d B", res.Reserved)
	}
	for _, ev := range res.Degraded {
		t.Logf("event: %s", ev)
	}
	brokerBalanced(t, broker)
}
