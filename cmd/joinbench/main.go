// Command joinbench runs the microbenchmark sweeps of the paper's
// evaluation: Figures 8/9 (scalability), 10 (memory traffic), 14
// (selectivity), 15 (payload size), 16 (pipeline depth), 17 (skew), and
// Tables 1, 3 and 4. Workload sizes follow Balkesen et al.'s A and B,
// scaled by -scale to fit the host.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"partitionjoin/internal/bench"
	"partitionjoin/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1,fig8,fig9,fig10,fig14,fig15,fig16,fig17,table3,table4,fig18,memladder,adapt,soak,all")
	scale := flag.Float64("scale", 1.0/64, "workload scale relative to the paper (1 = 16M x 256M tuples)")
	runs := flag.Int("runs", 3, "repetitions per measurement (median reported)")
	jsonOut := flag.Bool("json", false, "emit tables as JSON instead of aligned text")
	flag.Parse()

	bench.Runs = *runs
	cfg := core.DefaultConfig()
	printf := func(format string, args ...any) { fmt.Printf(format, args...) }
	threads := threadSteps()

	run := func(name string, f func() (*bench.Table, error)) {
		if *exp != "all" && *exp != name && !(name == "fig8" && *exp == "fig9") {
			return
		}
		t, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if *jsonOut {
			b, err := t.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(string(b))
		} else {
			t.Print(printf)
		}
		fmt.Println()
	}

	run("table1", func() (*bench.Table, error) { return bench.Table1(*scale), nil })
	run("fig8", func() (*bench.Table, error) { return bench.Fig8(*scale, threads, cfg) })
	run("fig10", func() (*bench.Table, error) { return bench.Fig10(*scale, cfg) })
	run("fig14", func() (*bench.Table, error) {
		return bench.Fig14(*scale, []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 1}, cfg)
	})
	run("fig15", func() (*bench.Table, error) { return bench.Fig15(*scale, []int{0, 1, 2, 3, 4, 6, 8}, cfg) })
	run("fig16", func() (*bench.Table, error) { return bench.Fig16(*scale, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, cfg) })
	run("fig17", func() (*bench.Table, error) {
		return bench.Fig17(*scale, []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2}, cfg)
	})
	run("table3", func() (*bench.Table, error) { return bench.Table3(*scale, cfg) })
	run("table4", func() (*bench.Table, error) { return bench.Table4(*scale, cfg) })
	run("fig18", func() (*bench.Table, error) { return bench.Fig18Micro(*scale, cfg) })
	run("memladder", func() (*bench.Table, error) {
		return bench.MemLadder(*scale, []int64{0, 8 << 20, 2 << 20, 512 << 10}, cfg)
	})
	run("adapt", func() (*bench.Table, error) {
		return bench.AdaptSweep(*scale, []float64{1.0 / 16, 1.0 / 4, 1, 4, 16}, cfg)
	})
	run("soak", func() (*bench.Table, error) {
		return bench.Soak(*scale, 4*runtime.GOMAXPROCS(0), 2, cfg)
	})
}

// threadSteps sweeps 1..GOMAXPROCS plus 2x for the hyper-threading point.
func threadSteps() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	out = append(out, 2*max)
	return out
}
