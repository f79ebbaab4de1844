package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sizes holds every size constant of the benchmark. It is part of each
// result file's fingerprint: two result files are comparable only when
// their sizes are equal.
type sizes struct {
	// SetupReps is how many times a run sets the workload up; setup_s is
	// the median. MinWindows is the fewest measured windows per run.
	SetupReps  int `json:"setup_reps"`
	MinWindows int `json:"min_windows"`

	// micro_join: bench.WorkloadA(1/MicroScaleDen); cycles per window.
	MicroScaleDen int `json:"micro_scale_den"`
	MicroCycles   int `json:"micro_cycles"`
	// tpch_engine: scale factor and passes over the 19 queries (each under
	// BHJ, BRJ, RJ and BHJ again) per window.
	TPCHSF     float64 `json:"tpch_sf"`
	TPCHPasses int     `json:"tpch_passes"`
	// serve_*: scale factor, rows of the wide projection, and cycles of the
	// statement mix per client per window.
	ServeSF             float64 `json:"serve_sf"`
	ServeWideRows       int     `json:"serve_wide_rows"`
	ServeUncachedCycles int     `json:"serve_uncached_cycles"`
	ServeCachedCycles   int     `json:"serve_cached_cycles"`
	// cluster_fabric: scale factor, shard count, cycles per window.
	ClusterSF     float64 `json:"cluster_sf"`
	ClusterShards int     `json:"cluster_shards"`
	ClusterCycles int     `json:"cluster_cycles"`
	// store_coldscan: scale factor, pool as a share of lineitem's on-disk
	// bytes, cycles per window.
	StoreSF       float64 `json:"store_sf"`
	StorePoolFrac float64 `json:"store_pool_frac"`
	StoreCycles   int     `json:"store_cycles"`
	// engine_mem_pressure: bench.WorkloadA(1/PressureScaleDen), budget as
	// a share of the unconstrained peak, ops per caller per window.
	PressureScaleDen   int     `json:"pressure_scale_den"`
	PressureBudgetFrac float64 `json:"pressure_budget_frac"`
	PressureOps        int     `json:"pressure_ops"`
}

// fullSizes are the sizes BENCHMARK.json's numbers are measured at: each
// window takes about a fifth of the declared run_seconds on two cores.
var fullSizes = sizes{
	SetupReps: 3, MinWindows: 3,
	MicroScaleDen: 128, MicroCycles: 3,
	TPCHSF: 0.1, TPCHPasses: 1,
	ServeSF: 0.1, ServeWideRows: 20000, ServeUncachedCycles: 10, ServeCachedCycles: 60,
	ClusterSF: 0.05, ClusterShards: 2, ClusterCycles: 3,
	StoreSF: 0.1, StorePoolFrac: 0.15, StoreCycles: 30,
	PressureScaleDen: 256, PressureBudgetFrac: 0.8, PressureOps: 10,
}

// shortSizes are toy sizes for the smoke test: every code path, no
// meaningful number.
var shortSizes = sizes{
	SetupReps: 1, MinWindows: 1,
	MicroScaleDen: 4096, MicroCycles: 1,
	TPCHSF: 0.005, TPCHPasses: 1,
	ServeSF: 0.005, ServeWideRows: 500, ServeUncachedCycles: 1, ServeCachedCycles: 2,
	ClusterSF: 0.005, ClusterShards: 2, ClusterCycles: 1,
	StoreSF: 0.005, StorePoolFrac: 0.15, StoreCycles: 1,
	PressureScaleDen: 4096, PressureBudgetFrac: 0.6, PressureOps: 2,
}

// env is what a workload's set-up is given.
type env struct {
	seed  int64
	procs int
	sz    sizes
	// dir is scratch space inside the checkout (stores, spill files).
	dir string
	// traced tells set-up to keep what only the traced run's decomposition
	// passes need (RAM copies of stored tables, per-shard catalogs).
	traced bool
}

// op is one entry of a workload's fixed schedule. run executes it against
// the system and returns the digest of what came back; the harness times
// the call and compares the digest with want, the reference computed in
// set-up. rec is nil in the untraced run.
type op struct {
	class string
	want  digest
	run   func(rec *opRec) (digest, error)
}

// opRec is a traced operation's handle on the tracer and the observation
// store: root is the operation's root span.
type opRec struct {
	tr   *tracer
	obs  *observations
	op   int
	root int
}

// stagedOp opens an operation of a decomposition pass: its root span is
// marked staged (see stagedLayer) and done closes it.
func stagedOp(tr *tracer, obs *observations, name string) (rec *opRec, done func()) {
	rec = &opRec{tr: tr, obs: obs, op: tr.newOp()}
	rec.root = tr.open(-1, rec.op, stagedLayer, name, time.Now())
	return rec, func() { tr.finish(rec.root, time.Now()) }
}

// span records a closed child of the operation's root span.
func (r *opRec) span(layer, name string, start, end time.Time) int {
	return r.tr.add(r.root, r.op, layer, name, start, end, false)
}

// observations collects named samples from traced operations; the
// per-layer metrics are reductions over them.
type observations struct {
	mu sync.Mutex
	v  map[string][]float64
}

func newObservations() *observations { return &observations{v: map[string][]float64{}} }

func (o *observations) add(key string, val float64) {
	o.mu.Lock()
	o.v[key] = append(o.v[key], val)
	o.mu.Unlock()
}

func (o *observations) get(key string) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.v[key]
}

// instance is one set-up of a workload.
type instance struct {
	// clients holds one fixed op list per closed-loop client: a window runs
	// every list once, the clients concurrently, each waiting for its reply
	// before sending the next op.
	clients [][]op
	// warm lists every distinct op once; set-up runs it untimed-per-op so
	// plan caches, zone maps, dictionaries and result caches exist.
	warm []op
	// staged, when set, runs the traced run's decomposition passes (staged
	// public calls for layers that sit behind HTTP, RAM baselines,
	// per-shard critical paths) before the traced windows.
	staged func(tr *tracer, obs *observations) error
	// mark snapshots the program's own counters; it is called immediately
	// before and after the traced windows, and layers sees the difference.
	mark func() counters
	// sample, when set, is polled every sampleEvery during the traced
	// windows for instantaneous state no counter keeps (queue depth).
	sample func(obs *observations)
	// layers adds the workload's own per-layer metrics to out.
	layers func(in layerInput, out map[string]float64)
	close  func()
}

// counters is a snapshot of monotonic program counters by name.
type counters map[string]float64

// layerInput is what the traced run hands to instance.layers.
type layerInput struct {
	obs     *observations
	trace   traceSummary
	delta   counters // mark() after the traced windows minus before
	ops     int      // correct ops in the traced windows
	latency float64  // their summed latency, ms
}

// workload is one named traffic mix.
type workload struct {
	name    string
	why     string
	clients int
	setup   func(e env) (*instance, error)
}

// window is one measured pass over the fixed schedule.
type window struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
	ok, failed int
	lats       []float64 // ms, correct ops only
	classes    []string  // op class of each entry of lats
	firstErr   error
}

// runOp executes one op, checks it, and returns its latency.
func runOp(o *op, tr *tracer, obs *observations) (time.Duration, error) {
	var rec *opRec
	start := time.Now()
	if tr != nil {
		rec = &opRec{tr: tr, obs: obs, op: tr.newOp()}
		rec.root = tr.open(-1, rec.op, "", o.class, start)
	}
	got, err := o.run(rec)
	end := time.Now()
	if rec != nil {
		tr.finish(rec.root, end)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", o.class, err)
	}
	if !got.equal(o.want) {
		return 0, fmt.Errorf("%s: wrong result: got %v, want %v", o.class, got, o.want)
	}
	return end.Sub(start), nil
}

// runWindow runs every client's op list once, concurrently, and measures
// the window from outside: wall time, process CPU, bytes allocated.
func runWindow(inst *instance, tr *tracer, obs *observations) window {
	var w window
	var m0, m1 runtime.MemStats
	per := make([]window, len(inst.clients))
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range inst.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &per[ci]
			ops := inst.clients[ci]
			for i := range ops {
				lat, err := runOp(&ops[i], tr, obs)
				if err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = err
					}
					continue
				}
				c.ok++
				c.lats = append(c.lats, float64(lat)/float64(time.Millisecond))
				c.classes = append(c.classes, ops[i].class)
			}
		}(ci)
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, c := range per {
		w.ok += c.ok
		w.failed += c.failed
		w.lats = append(w.lats, c.lats...)
		w.classes = append(w.classes, c.classes...)
		if w.firstErr == nil {
			w.firstErr = c.firstErr
		}
	}
	return w
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	body, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSteal reads the machine's cumulative CPU time from /proc/stat: the
// jiffies the hypervisor gave to other guests while this one wanted to run,
// and the total. On a shared box an episode of steal slows every workload by
// a factor no change to the program explains.
func cpuSteal() (steal, total float64) {
	body, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(body), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// settle collects set-up garbage so the first window does not pay for it.
// The freed spans stay with the runtime: handing them back to the OS would
// make the first window fault every page in again.
func settle() { runtime.GC() }

// setUp times one full set-up including the warm pass.
func setUp(w workload, e env) (*instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := range inst.warm {
		if _, err := runOp(&inst.warm[i], nil, nil); err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("%s: warm pass: %w", w.name, err)
		}
	}
	return inst, time.Since(start), nil
}

// maxSteal is the share of stolen CPU time above which a run says more
// about the host than about the program: -compare leaves such runs out.
const maxSteal = 0.02

// measured is a metric value as a run reports it; Q1 and Q3 are the
// quartiles over the run's windows, for windowed metrics.
type measured struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
}

// runRecord is one run of one workload, as stored in a result file.
type runRecord struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     int     `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Windows   int     `json:"windows"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"latency_samples"`
	Tail      string  `json:"highest_supported_percentile"`
	FirstErr  string  `json:"first_error,omitempty"`
	// StealFrac is the share of the machine's CPU time the hypervisor took
	// from this guest during the run; above maxSteal the run is disturbed.
	StealFrac float64 `json:"cpu_steal_frac"`
	// ClassP50 is the median latency of each op class, in ms: context for
	// where the mixture's percentiles fall, not a declared metric.
	ClassP50 map[string]float64  `json:"class_p50_ms"`
	Metrics  map[string]measured `json:"metrics"`
}

// endToEnd reduces measured windows to the end-to-end metrics.
func endToEnd(rec *runRecord, ws []window) {
	var ops, cpu, alloc, lats []float64
	byClass := map[string][]float64{}
	for _, w := range ws {
		for i, c := range w.classes {
			byClass[c] = append(byClass[c], w.lats[i])
		}
		rec.Attempted += w.ok + w.failed
		rec.Failed += w.failed
		if w.firstErr != nil && rec.FirstErr == "" {
			rec.FirstErr = w.firstErr.Error()
		}
		lats = append(lats, w.lats...)
		if w.ok == 0 {
			continue
		}
		n := float64(w.ok)
		ops = append(ops, n/w.wall.Seconds())
		cpu = append(cpu, float64(w.cpu)/float64(time.Millisecond)/n)
		alloc = append(alloc, float64(w.allocBytes)/1024/n)
	}
	rec.Windows = len(ws)
	rec.ClassP50 = map[string]float64{}
	for c, v := range byClass {
		rec.ClassP50[c] = median(v)
	}
	windowed := func(name, unit string, vals []float64) {
		q := quartiles(vals)
		rec.Metrics[name] = measured{Value: q[1], Unit: unit, Q1: &q[0], Q3: &q[2]}
	}
	windowed("ops_per_s", "1/s", ops)
	windowed("cpu_ms_per_op", "ms", cpu)
	windowed("alloc_kib_per_op", "KiB", alloc)
	sort.Float64s(lats)
	rec.Samples = len(lats)
	rec.Metrics["lat_p50_ms"] = measured{Value: percentile(lats, 0.50), Unit: "ms"}
	rec.Metrics["lat_p95_ms"] = measured{Value: percentile(lats, 0.95), Unit: "ms"}
	if p := supportedTail(len(lats)); p > 0 {
		rec.Tail = fmt.Sprintf("p%.0f", p*100)
	} else {
		rec.Tail = "none"
	}
	ff := 0.0
	if rec.Attempted > 0 {
		ff = float64(rec.Failed) / float64(rec.Attempted)
	}
	rec.Metrics["fail_frac"] = measured{Value: ff, Unit: "ratio"}
}

// runUntraced is the end-to-end run: set up SetupReps times, keep the last
// instance, then measure whole windows with tracing off.
func runUntraced(w workload, e env, seconds float64) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: e.seed, Seconds: seconds, Metrics: map[string]measured{}}
	steal0, total0 := cpuSteal()
	var inst *instance
	var setups []float64
	for i := 0; i < e.sz.SetupReps; i++ {
		if inst != nil {
			inst.close()
			settle()
		}
		var d time.Duration
		var err error
		if inst, d, err = setUp(w, e); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer inst.close()
	q := quartiles(setups)
	rec.Metrics["setup_s"] = measured{Value: q[1], Unit: "s", Q1: &q[0], Q3: &q[2]}
	settle()
	// Whole windows until the time is up, and at least MinWindows.
	var ws []window
	for start := time.Now(); len(ws) < e.sz.MinWindows || time.Since(start).Seconds() < seconds; {
		ws = append(ws, runWindow(inst, nil, nil))
	}
	endToEnd(rec, ws)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		rec.StealFrac = (steal1 - steal0) / (total1 - total0)
	}
	return rec, nil
}

// runTraced is the per-layer run. It runs the decomposition passes, then
// spends two thirds of the time on windows, every other one traced; the
// untraced ones are the in-process baseline trace.overhead_frac is measured
// against. End-to-end numbers never come from this run.
func runTraced(w workload, e env, seconds float64, tracePath string) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: e.seed, Trace: 1, Seconds: seconds, Metrics: map[string]measured{}}
	e.traced = true
	goroutines0 := settledGoroutines()
	inst, _, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	tr, obs := newTracer(), newObservations()
	if inst.staged != nil {
		if err := inst.staged(tr, obs); err != nil {
			return nil, fmt.Errorf("%s: staged replay: %w", w.name, err)
		}
	}
	settle()
	// Untraced and traced windows alternate, so drift in the machine's
	// speed lands on both sides of trace.overhead_frac alike. The program's
	// counters are read around each traced window only.
	var base, traced []window
	delta := counters{}
	min := (e.sz.MinWindows + 2) / 3
	for start := time.Now(); len(traced) < min || time.Since(start).Seconds() < seconds*2/3; {
		base = append(base, runWindow(inst, nil, nil))
		var before counters
		if inst.mark != nil {
			before = inst.mark()
		}
		stopSampler := startSampler(inst, obs)
		traced = append(traced, runWindow(inst, tr, obs))
		stopSampler()
		if inst.mark != nil {
			for k, v := range inst.mark() {
				delta[k] += v - before[k]
			}
		}
	}

	in := layerInput{obs: obs, trace: summarize(tr.snapshot()), delta: delta}
	var gcPause time.Duration
	for _, win := range traced {
		in.ops += win.ok
		in.latency += sum(win.lats)
		gcPause += win.gcPause
	}
	endToEnd(rec, traced)
	e2e := rec.Metrics
	rec.Metrics = map[string]measured{}

	out := map[string]float64{}
	engineLayers(in, out)
	if inst.layers != nil {
		inst.layers(in, out)
	}
	baseRec := &runRecord{Metrics: map[string]measured{}}
	endToEnd(baseRec, base)
	if b := baseRec.Metrics["ops_per_s"].Value; b > 0 {
		out["trace.overhead_frac"] = (b - e2e["ops_per_s"].Value) / b
	}
	out["trace.unexplained_frac"] = in.trace.unexplained
	if in.ops > 0 {
		out["proc.gc_pause_ms"] = float64(gcPause) / float64(time.Millisecond) / float64(in.ops)
	}
	out["proc.peak_rss_mib"] = peakRSSMiB()

	inst.close()
	closed = true
	out["proc.goroutines_delta"] = float64(settledGoroutines() - goroutines0)

	for name, v := range out {
		rec.Metrics[name] = measured{Value: v, Unit: layerUnit(name)}
	}
	if tracePath != "" {
		if err := writeTrace(tracePath, w.name, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// sampleEvery is the polling period of instance.sample.
const sampleEvery = 500 * time.Microsecond

// startSampler polls inst.sample until the returned stop function is
// called; stop returns once the poller has exited.
func startSampler(inst *instance, obs *observations) (stop func()) {
	if inst.sample == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				inst.sample(obs)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// falling: goroutines of closed listeners and idle connections take a
// moment to exit, and counting them would hide or fake a leak.
func settledGoroutines() int {
	n, steady := runtime.NumGoroutine(), 0
	for i := 0; i < 100 && steady < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, steady = m, 0
		} else {
			steady++
		}
	}
	return n
}
