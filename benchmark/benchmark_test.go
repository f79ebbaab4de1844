package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"partitionjoin/internal/exec"
	"partitionjoin/internal/storage"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// Nearest rank: p95 of 1..200 is the 190th value, leaving 10 beyond.
	if got := percentile(sorted, 0.95); got != 190 {
		t.Errorf("p95 = %v, want 190", got)
	}
	if got := percentile(sorted, 0.50); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 12, 11, 15, 9}, [3]float64{9.5, 11, 13.5}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if got := (side{median: 5.5, q1: 2.75, q3: 8.25}).spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Name: "a", Start: at(10), End: at(30)},
		{ID: 2, Parent: 0, Name: "b", Start: at(20), End: at(50)},       // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: at(90), End: at(120)},      // clipped to the parent
		{ID: 4, Parent: 2, Name: "b.inner", Start: at(25), End: at(45)}, // a grandchild changes b, not op
		{ID: 5, Parent: -1, Layer: stagedLayer, Name: "staged/x", Start: at(200), End: at(300)},
		{ID: 6, Parent: 5, Name: "a", Start: at(200), End: at(260)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: at(50), 1: at(20), 2: at(10), 3: at(30), 4: at(20), 5: at(40), 6: at(60)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	sum := summarize(spans)
	// Only the measured op counts toward the unexplained share; the staged
	// root's own 40 ms does not.
	if math.Abs(sum.unexplained-0.5) > 1e-12 {
		t.Errorf("unexplained = %v, want 0.5", sum.unexplained)
	}
	if sum.selfByName["a"] != at(80) || sum.countByName["a"] != 2 {
		t.Errorf("span a: self %v over %d spans, want 80ms over 2", sum.selfByName["a"], sum.countByName["a"])
	}
}

// testResult builds a three-column result: int, float, string.
func testResult(ints []int64, floats []float64, strs []string) *exec.Result {
	r := exec.NewResult([]storage.Type{storage.Int64, storage.Float64, storage.String}, nil)
	b := exec.NewBatch([]storage.Type{storage.Int64, storage.Float64, storage.String}, nil)
	for i := range ints {
		b.Vecs[0].I64 = append(b.Vecs[0].I64, ints[i])
		b.Vecs[1].F64 = append(b.Vecs[1].F64, floats[i])
		b.Vecs[2].Str = append(b.Vecs[2].Str, []byte(strs[i]))
		b.N++
	}
	r.AppendBatch(b)
	return r
}

func TestDigest(t *testing.T) {
	ref := digestResult(testResult([]int64{1, 2, 3}, []float64{0.1, 0.2, 0.3}, []string{"a", "b", "c"}))
	if ref.Kinds != "ifs" || ref.Rows != 3 {
		t.Fatalf("reference digest %+v", ref)
	}
	same := map[string]digest{
		"reordered rows":    digestResult(testResult([]int64{3, 1, 2}, []float64{0.3, 0.1, 0.2}, []string{"c", "a", "b"})),
		"float within 1e-9": digestResult(testResult([]int64{1, 2, 3}, []float64{0.1, 0.2, 0.3 + 1e-13}, []string{"a", "b", "c"})),
	}
	// What a client decodes from JSON: every number a float64.
	rows := [][]any{{float64(2), 0.2, "b"}, {float64(1), 0.1, "a"}, {float64(3), 0.3, "c"}}
	fromJSON, err := digestRows(ref.Kinds, rows)
	if err != nil {
		t.Fatal(err)
	}
	same["JSON-decoded rows"] = fromJSON
	typed, err := digestRows(ref.Kinds, [][]any{{int64(1), 0.1, "a"}, {int64(2), 0.2, "b"}, {int64(3), 0.3, "c"}})
	if err != nil {
		t.Fatal(err)
	}
	same["typed rows"] = typed
	for name, d := range same {
		if !d.equal(ref) {
			t.Errorf("%s: %v should equal %v", name, d, ref)
		}
	}
	differ := map[string]digest{
		"changed int":         digestResult(testResult([]int64{1, 2, 4}, []float64{0.1, 0.2, 0.3}, []string{"a", "b", "c"})),
		"changed string":      digestResult(testResult([]int64{1, 2, 3}, []float64{0.1, 0.2, 0.3}, []string{"a", "b", "x"})),
		"float beyond 1e-9":   digestResult(testResult([]int64{1, 2, 3}, []float64{0.1, 0.2, 0.3 + 1e-6}, []string{"a", "b", "c"})),
		"cells swapped rows":  digestResult(testResult([]int64{1, 2, 3}, []float64{0.1, 0.2, 0.3}, []string{"b", "a", "c"})),
		"missing row":         digestResult(testResult([]int64{1, 2}, []float64{0.1, 0.2}, []string{"a", "b"})),
		"duplicate for a row": digestResult(testResult([]int64{1, 2, 2}, []float64{0.1, 0.2, 0.3}, []string{"a", "b", "b"})),
	}
	for name, d := range differ {
		if d.equal(ref) {
			t.Errorf("%s: %v should differ from %v", name, d, ref)
		}
	}
	if _, err := digestRows(ref.Kinds, [][]any{{"one", 0.1, "a"}}); err == nil {
		t.Error("a string where the reference has a number should be an error")
	}
	if _, err := digestRows(ref.Kinds, [][]any{{float64(1), 0.1}}); err == nil {
		t.Error("a short row should be an error")
	}
}

// A deliberately corrupted row must count as a failed op: it raises
// fail_frac and contributes no latency sample.
func TestCorruptedRowCountsAsFailure(t *testing.T) {
	want := digestResult(testResult([]int64{1, 2}, []float64{0.5, 0.5}, []string{"a", "b"}))
	good := op{class: "good", want: want, run: func(*opRec) (digest, error) {
		return digestResult(testResult([]int64{2, 1}, []float64{0.5, 0.5}, []string{"b", "a"})), nil
	}}
	corrupt := op{class: "corrupt", want: want, run: func(*opRec) (digest, error) {
		return digestResult(testResult([]int64{1, 2}, []float64{0.5, 0.5}, []string{"a", "B"})), nil
	}}
	inst := &instance{clients: [][]op{{good, corrupt, good, good}}}
	w := runWindow(inst, nil, nil)
	if w.ok != 3 || w.failed != 1 || len(w.lats) != 3 {
		t.Fatalf("window: ok=%d failed=%d latency samples=%d, want 3, 1, 3", w.ok, w.failed, len(w.lats))
	}
	if w.firstErr == nil || !strings.Contains(w.firstErr.Error(), "corrupt: wrong result") {
		t.Errorf("first error = %v", w.firstErr)
	}
	rec := &runRecord{Metrics: map[string]measured{}}
	endToEnd(rec, []window{w})
	if got := rec.Metrics["fail_frac"].Value; got != 0.25 {
		t.Errorf("fail_frac = %v, want 0.25", got)
	}
	if rec.Attempted != 4 || rec.Failed != 1 || rec.Samples != 3 {
		t.Errorf("attempted=%d failed=%d samples=%d, want 4, 1, 3", rec.Attempted, rec.Failed, rec.Samples)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// BENCHMARK.json must be what this package declares, within the limits the
// driver checks before a single run.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the package's declarations; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	unique := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		unique(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.clients > defaultProcs() && w.clients > 2 {
			t.Errorf("%s: %d clients", w.name, w.clients)
		}
	}
	hasSetup := false
	for _, m := range endToEndMetrics {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range perLayerMetrics {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

// driverMetrics decodes the last-line JSON and returns its metric names.
func driverMetrics(t *testing.T, line string) map[string]bool {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("driver line: %v", err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Fatalf("driver line lacks correct/attempted/failed: %s", line)
	}
	names := map[string]bool{}
	for n, m := range got.Metrics {
		if m.Value == nil || m.Unit == nil {
			t.Errorf("metric %s lacks value or unit", n)
		}
		names[n] = true
	}
	return names
}

// The smoke pass runs all seven workloads at toy sizes, untraced and traced,
// and checks that every declared metric name comes out exactly once per
// workload, that nothing fails, and that the bypass predictions hold.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		e := env{seed: 3, procs: 2, sz: shortSizes, dir: dir}
		rec, err := runUntraced(w, e, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: attempted=%d failed=%d (%s)", w.name, rec.Attempted, rec.Failed, rec.FirstErr)
		}
		names := driverMetrics(t, driverLine([]*runRecord{rec}, false, false))
		if len(names) != len(endToEndMetrics) {
			t.Errorf("%s: %d end-to-end metrics on the driver line, want %d", w.name, len(names), len(endToEndMetrics))
		}
		for _, m := range endToEndMetrics {
			if !names[m.Name] {
				t.Errorf("%s: end-to-end metric %s missing", w.name, m.Name)
			}
			if v, ok := rec.Metrics[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v.Value)
			}
		}
		if _, ok := rec.Metrics["fail_frac"]; !ok {
			t.Errorf("%s: fail_frac missing", w.name)
		}

		tracePath := filepath.Join(dir, "trace-"+w.name+".json")
		tr, err := runTraced(w, e, 0, tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Failed != 0 {
			t.Errorf("%s traced: %d failed (%s)", w.name, tr.Failed, tr.FirstErr)
		}
		names = driverMetrics(t, driverLine([]*runRecord{tr}, true, false))
		if len(names) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics on the driver line, want %d", w.name, len(names), len(perLayerMetrics))
		}
		for _, m := range perLayerMetrics {
			if !names[m.Name] {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
			}
		}
		if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
		for _, p := range predictions(tr) {
			// The toy sizes are too small for shares of time to mean
			// anything; the bypass predictions must hold at any size.
			if !p.ok && !strings.Contains(p.text, "trace.overhead_frac") && !strings.Contains(p.text, "core self times") {
				t.Errorf("%s: prediction broken: %s", w.name, p.text)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, perRun func(seed int) map[string]float64) string {
		rf := resultFile{Fingerprint: newFingerprint("test", 1, 2, shortSizes)}
		for seed := 1; seed <= 10; seed++ {
			ms := map[string]measured{}
			for n, v := range perRun(seed) {
				ms[n] = measured{Value: v}
			}
			rf.Runs = append(rf.Runs, &runRecord{Workload: "micro_join", Seed: int64(seed), Metrics: ms})
		}
		body, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", func(seed int) map[string]float64 {
		return map[string]float64{
			"ops_per_s":  100 + float64(seed%3),        // steady
			"lat_p50_ms": 100 + float64(seed%2),        // steady
			"lat_p95_ms": 20 * (1 + 0.1*float64(seed)), // spread far beyond its bound
			"fail_frac":  0,
		}
	})
	same := write("same.json", func(seed int) map[string]float64 {
		return map[string]float64{"ops_per_s": 101 + float64(seed%3), "lat_p50_ms": 100 + float64(seed%2), "lat_p95_ms": 20 * (1 + 0.1*float64(seed)), "fail_frac": 0}
	})
	worse := write("worse.json", func(seed int) map[string]float64 {
		return map[string]float64{"ops_per_s": 60 + float64(seed%3), "lat_p50_ms": 100 + float64(seed%2), "lat_p95_ms": 20 * (1 + 0.1*float64(seed)), "fail_frac": 0.1}
	})

	var out bytes.Buffer
	regressed, err := compareFiles(&out, base, same)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Errorf("an equal run regressed:\n%s", out.String())
	}
	for metric, want := range map[string]string{"ops_per_s": "ok", "lat_p50_ms": "ok", "lat_p95_ms": "unresolved", "fail_frac": "ok"} {
		if !rowHas(out.String(), metric, want) {
			t.Errorf("%s should be %s:\n%s", metric, want, out.String())
		}
	}

	out.Reset()
	regressed, err = compareFiles(&out, base, worse)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("40%% fewer ops per second should regress:\n%s", out.String())
	}
	for metric, want := range map[string]string{"ops_per_s": "regressed", "lat_p50_ms": "ok", "fail_frac": "regressed"} {
		if !rowHas(out.String(), metric, want) {
			t.Errorf("%s should be %s:\n%s", metric, want, out.String())
		}
	}
	if code := realMain([]string{"-compare", base, worse}); code != 1 {
		t.Errorf("exit status %d on a regression, want 1", code)
	}
}

// rowHas reports whether the compare table's row for metric ends in verdict.
func rowHas(table, metric, verdict string) bool {
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[1] == metric && f[len(f)-1] == verdict {
			return true
		}
	}
	return false
}
