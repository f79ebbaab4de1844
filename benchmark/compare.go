package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// side is one result file's values of one (workload, metric) pair.
type side struct {
	median, q1, q3 float64
	n              int
}

// spread is the side's interquartile range as a share of its median.
func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// sideOf reduces the untraced runs of one workload in a result file to a
// median and quartiles per metric, leaving out disturbed runs (see
// maxSteal). With two or more runs the quartiles are over the runs' values;
// a single run falls back to its own window quartiles, where the metric has
// them.
func sideOf(rf *resultFile, workload, metric string) (side, bool) {
	var vals []float64
	var only measured
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Trace != 0 || r.StealFrac > maxSteal {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
			only = m
		}
	}
	switch {
	case len(vals) == 0:
		return side{}, false
	case len(vals) == 1 && only.Q1 != nil:
		return side{median: only.Value, q1: *only.Q1, q3: *only.Q3, n: 1}, true
	}
	q := quartiles(vals)
	return side{median: q[1], q1: q[0], q3: q[2], n: len(vals)}, true
}

// verdict judges b against a for one metric. A median worse by more than
// the bound is a regression; otherwise, when either side's own spread is
// wider than the bound, the runs cannot resolve a change of that size.
func verdict(m metricDef, a, b side) (delta float64, v string) {
	if a.median != 0 {
		delta = (b.median - a.median) / a.median
	}
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > m.Bound:
		return delta, "regressed"
	case a.spread() > m.Bound || b.spread() > m.Bound:
		return delta, "unresolved"
	}
	return delta, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, quartiles, the relative change and a verdict, and reports
// whether any pair regressed. fail_frac is compared exactly: any increase
// is a regression.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Fingerprint.Sizes != b.Fingerprint.Sizes || a.Fingerprint.GOMAXPROCS != b.Fingerprint.GOMAXPROCS {
		return false, fmt.Errorf("%s and %s were measured at different sizes or procs and cannot be compared", pathA, pathB)
	}
	for _, f := range []struct {
		tag, path string
		rf        *resultFile
	}{{"a", pathA, a}, {"b", pathB, b}} {
		disturbed := 0
		for _, r := range f.rf.Runs {
			if r.Trace == 0 && r.StealFrac > maxSteal {
				disturbed++
			}
		}
		fmt.Fprintf(w, "%s: %s  commit %s  (%s, %d procs); %d runs left out as disturbed (more than %.0f%% of CPU time stolen by the host)\n",
			f.tag, f.path, f.rf.Fingerprint.Commit, f.rf.Fingerprint.CPUModel, f.rf.Fingerprint.GOMAXPROCS, disturbed, maxSteal*100)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] (n)\tb median [q1, q3] (n)\ta spread\tb spread\tdelta\tbound\tverdict")
	compared := append(append([]metricDef(nil), endToEndMetrics...), metricDef{Name: "fail_frac", Unit: "ratio", Better: "lower"})
	for _, wl := range workloads {
		for _, m := range compared {
			sa, okA := sideOf(a, wl.name, m.Name)
			sb, okB := sideOf(b, wl.name, m.Name)
			if !okA || !okB {
				continue
			}
			delta, v := verdict(m, sa, sb)
			if m.Name == "fail_frac" {
				delta, v = sb.median-sa.median, "ok"
				if sb.median > sa.median {
					v = "regressed"
				}
			}
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%.2f%%\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\n",
				wl.name, m.Name, m.Unit, sa.median, sa.q1, sa.q3, sa.n, sb.median, sb.q1, sb.q3, sb.n,
				sa.spread()*100, sb.spread()*100, delta*100, m.Bound*100, v)
		}
	}
	return regressed, tw.Flush()
}
