// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed time, checks every output it gets against a
// computation made apart from the layers the workload exercises, and prints
// one JSON result line last:
//
//	perfbench --workload showcase-video --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run records spans around every call into the program's layers, prints
// the per-layer metrics and the layer ladder, and writes a Perfetto-loadable
// trace. --steady N repeats a workload in N child processes and prints each
// metric's median and quartile spread. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload run accumulates: operation accounting, the
// problems its checks found, and both metric sets.
type run struct {
	cfg       config
	attempted int
	failed    int
	// problems are check failures that are not one operation's (a ground-truth
	// ratio, a cache counter); any of them makes the run incorrect.
	problems []string
	// opErrors keeps the first few failed operations' reasons for the log.
	opErrors []string
	e2e      map[string]metric
	layers   map[string]metric
	rec      *recorder // nil unless --trace 1
	clock    *stealClock
}

type config struct {
	seed    uint64
	seconds int
	trace   bool
	workDir string
}

func (r *run) opFailed(err error) {
	r.failed++
	if len(r.opErrors) < 5 {
		r.opErrors = append(r.opErrors, err.Error())
	}
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

// workload runs the timed phase (and, when traced, the layer sweep).
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"showcase-video", runShowcase},
	{"fleet-seed-mix", runSeedMix},
	{"fleet-tensor-body", runTensorBody},
	{"zoo-deploy", runZoo},
}

// e2eMetrics and layerMetrics are the names every run prints, in
// BENCHMARK.json order.
var e2eMetrics = []string{
	"setup_s", "latency_p50_ms", "latency_p95_ms", "throughput_per_s",
	"sim_ms", "artifact_mb", "retained_heap_mb",
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "timed-phase length")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, ladder and trace file")
		steady   = flag.Int("steady", 0, "repeat the workload in this many child processes and report each metric's spread")
		traceOut = flag.String("trace-out", "", "trace file (default .bench_build/trace-<workload>-<seed>.json)")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *steady, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace, steady int, traceOut string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown --workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if steady > 0 {
		return steadiness(name, seconds, steady)
	}
	printHost()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	r := &run{
		cfg:    config{seed: seed, seconds: seconds, trace: trace == 1, workDir: work},
		e2e:    map[string]metric{},
		layers: map[string]metric{},
	}
	if r.cfg.trace {
		r.rec = newRecorder()
	}
	r.clock = startStealClock()
	start := time.Now()
	err = w.run(r)
	r.clock.stop()
	if err != nil {
		return err
	}
	fmt.Printf("host: the hypervisor stole %.1f%% of the CPU time the run asked for; timed intervals are net of it\n",
		100*r.clock.share(start, time.Now()))
	if r.cfg.trace {
		if err := traceSweep(r); err != nil {
			return err
		}
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, seed))
		}
		if err := r.rec.write(traceOut); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (%d spans)\n", traceOut, r.rec.len())
	}
	return report(r)
}

// report prints the workload's metrics as a table, then the result line, and
// fails the process when any operation or check failed.
func report(r *run) error {
	want, set := e2eMetrics, r.e2e
	label := "end-to-end"
	if r.cfg.trace {
		want, set, label = layerMetrics, r.layers, "per-layer"
		fmt.Println("end-to-end, traced (tracing overhead = these minus an untraced run):")
		printMetrics(e2eMetrics, r.e2e)
	}
	for _, n := range want {
		if _, ok := set[n]; !ok {
			return fmt.Errorf("internal: %s metric %q was not measured", label, n)
		}
	}
	fmt.Printf("%s metrics:\n", label)
	printMetrics(want, set)
	for _, e := range r.opErrors {
		fmt.Println("failed operation:", e)
	}
	for _, p := range r.problems {
		fmt.Println("check failed:", p)
	}
	fmt.Printf("operations: attempted %d, failed %d\n", r.attempted, r.failed)
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, n := range want {
		out.Metrics[n] = set[n]
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.attempted == 0 || r.failed > 0 || !out.Correct {
		return fmt.Errorf("%d of %d operations failed, %d run checks failed", r.failed, r.attempted, len(r.problems))
	}
	return nil
}

func printMetrics(names []string, set map[string]metric) {
	for _, n := range names {
		if m, ok := set[n]; ok {
			fmt.Printf("  %-28s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
}

// printHost records where the numbers were taken.
func printHost() {
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), commit())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapMB returns the live heap after two forced collections: the second
// frees what the first only moved into sync.Pool victim caches.
func heapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// deadline returns when the timed phase ends.
func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.cfg.seconds) * time.Second)
}

// setupMedian runs setup n times, keeping the last instance and tearing the
// others down, and records the median duration as setup_s.
func setupMedian[T any](r *run, n int, setup func() (T, error), teardown func(T)) (T, error) {
	var keep T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return keep, err
		}
		times = append(times, r.clock.netMs(start, time.Now())/1e3)
		if i < n-1 {
			teardown(v)
		} else {
			keep = v
		}
	}
	sort.Float64s(times)
	r.setE2E("setup_s", "s", median(times))
	fmt.Printf("setup: %d times, %.3f to %.3f s\n", n, times[0], times[n-1])
	return keep, nil
}
