// Command benchmark is the repository's measurement spine: seven workloads
// that drive the engine, the query daemon, the shard fabric and the column
// store through their public functions only, check every result against a
// reference, and report the end-to-end metrics declared in BENCHMARK.json
// (untraced run) or the per-layer metrics (traced run). See README.md.
//
//	go run ./benchmark                      every workload, untraced
//	go run ./benchmark -workload micro_join -seed 7 -seconds 10 -trace 1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads is the suite, in the order it runs.
var workloads = []workload{
	microJoin, tpchEngine, serveUncached, serveCached, clusterFabric, storeColdscan, memPressure,
}

// defaultProcs is min(nproc, 4): it sets GOMAXPROCS and the engine's worker
// count, and no workload uses more clients than that.
func defaultProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 10, "seconds of measured windows per workload")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
		procs    = fs.Int("procs", defaultProcs(), "GOMAXPROCS and engine workers")
		out      = fs.String("out", "", "result file to append this run to")
		dir      = fs.String("dir", filepath.Join("benchmark", "out"), "directory for scratch data and trace files")
		commit   = fs.String("commit", "", "commit SHA for the fingerprint (default: git rev-parse HEAD)")
		short    = fs.Bool("short", false, "toy sizes: smoke-test every code path")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		list     = fs.Bool("list", false, "print the workload names and exit")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as this code declares it and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *list {
		for _, w := range workloads {
			fmt.Println(w.name)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	sz := fullSizes
	if *short {
		sz = shortSizes
	}
	runtime.GOMAXPROCS(*procs)
	fp := newFingerprint(*commit, *seed, *procs, sz)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*dir, "scratch-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	var recs []*runRecord
	for _, w := range selected {
		e := env{seed: *seed, procs: *procs, sz: sz, dir: scratch}
		var rec *runRecord
		if *trace != 0 {
			rec, err = runTraced(w, e, *seconds, filepath.Join(*dir, "trace-"+w.name+".json"))
		} else {
			rec, err = runUntraced(w, e, *seconds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printRecord(os.Stdout, w, rec)
		recs = append(recs, rec)
	}
	if *out != "" {
		if err := appendResults(*out, fp, recs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Println(driverLine(recs, *trace != 0, len(selected) > 1))
	return 0
}

// printRecord prints one run for people: every metric by name with its unit.
func printRecord(w *os.File, wl workload, rec *runRecord) {
	kind := "end-to-end"
	if rec.Trace != 0 {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d  clients=%d (closed loop)  windows=%d  ops=%d  failed=%d\n",
		rec.Workload, kind, rec.Seed, wl.clients, rec.Windows, rec.Attempted, rec.Failed)
	if rec.Trace == 0 {
		fmt.Fprintf(w, "   latency samples=%d, highest supported percentile=%s (>= %d samples beyond)\n",
			rec.Samples, rec.Tail, minBeyond)
	}
	if rec.Trace == 0 {
		classes := make([]string, 0, len(rec.ClassP50))
		for c := range rec.ClassP50 {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return rec.ClassP50[classes[i]] < rec.ClassP50[classes[j]] })
		fmt.Fprint(w, "   median latency by op class [ms]:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%.3g", c, rec.ClassP50[c])
		}
		fmt.Fprintln(w)
	}
	if rec.StealFrac > maxSteal {
		fmt.Fprintf(w, "   DISTURBED: the hypervisor stole %.1f%% of the machine's CPU time during this run\n", rec.StealFrac*100)
	}
	if rec.FirstErr != "" {
		fmt.Fprintf(w, "   first failure: %s\n", rec.FirstErr)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		line := fmt.Sprintf("   %-42s %14.6g %s", n, m.Value, m.Unit)
		if m.Q1 != nil {
			line += fmt.Sprintf("   [q1 %.6g, q3 %.6g]", *m.Q1, *m.Q3)
		}
		fmt.Fprintln(w, line)
	}
	if rec.Trace != 0 {
		for _, p := range predictions(rec) {
			mark := "holds"
			if !p.ok {
				mark = "BROKEN"
			}
			fmt.Fprintf(w, "   prediction %s: %s\n", mark, p.text)
		}
	}
}

// driverLine is the last line of standard output: one JSON object with
// exactly the keys correct, attempted, failed and metrics. An untraced run
// lists every declared end-to-end metric; a traced run every declared
// per-layer metric, 0 where the layer does not run on the workload. When
// several workloads ran, names are prefixed with the workload.
func driverLine(recs []*runRecord, traced, prefix bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Metrics: map[string]val{}}
	declared := endToEndMetrics
	if traced {
		declared = perLayerMetrics
	}
	for _, r := range recs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range declared {
			n := d.Name
			if prefix {
				n = r.Workload + "/" + n
			}
			line.Metrics[n] = val{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
		}
	}
	line.Correct = line.Failed == 0
	b, _ := json.Marshal(line)
	return string(b)
}

// fingerprint says what produced a result file: two files are comparable
// when everything but the commit agrees.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Sizes      sizes  `json:"sizes"`
}

func newFingerprint(commit string, seed int64, procs int, sz sizes) fingerprint {
	if commit == "" {
		commit = "unknown"
		cmd := exec.Command("git", "rev-parse", "HEAD")
		// A checkout that is not a git repository must not report the
		// HEAD of some repository above it.
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return fingerprint{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: procs, CPUModel: cpuModel(), Seed: seed, Sizes: sz,
	}
}

func cpuModel() string {
	body, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// resultFile is what -out writes and -compare reads: one fingerprint and
// any number of runs, typically several seeds of every workload.
type resultFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []*runRecord `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(body, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds runs to the result file at path, creating it if
// needed. Runs of another commit or other sizes are refused: they would not
// be a repeat of what the file holds. The file's seed is the first run's.
func appendResults(path string, fp fingerprint, recs []*runRecord) error {
	rf, err := readResults(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		rf = &resultFile{Fingerprint: fp}
	case err != nil:
		return err
	case rf.Fingerprint.Commit != fp.Commit || rf.Fingerprint.Sizes != fp.Sizes || rf.Fingerprint.GOMAXPROCS != fp.GOMAXPROCS:
		return fmt.Errorf("%s holds runs of commit %s with other sizes or procs; use another file", path, rf.Fingerprint.Commit)
	}
	rf.Runs = append(rf.Runs, recs...)
	body, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
