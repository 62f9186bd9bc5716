// Command perfbench is the repository's end-to-end benchmark. It starts
// the profile daemon in-process — one server for generation and streams,
// a three-node fleet for reads — drives one workload against it from its
// own goroutines (never more than two client goroutines and connections),
// checks every output, and prints the metrics as the last line of its
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-profiles|hot-serving|stream-ingest \
//	    --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh steady
//	bash perfbench/run.sh reference
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// once untraced and once under a CPU profile with spans, and reports the
// per-layer metrics plus the tracing overhead. "steady" runs each
// workload ten times, with seeds 1 to 10, and prints each end-to-end metric's
// median, quartiles and spread against its bound in BENCHMARK.json.
// "reference" recomputes reference.json, the exact answers the
// correctness checks compare against. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload execution's shared state: its settings, the
// metrics it reports, operation accounting and correctness findings.
type run struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	dir     string // scratch directory for stores, inside the checkout
	trace   *tracer

	e2e   map[string]metric
	layer map[string]metric

	mu        sync.Mutex // guards the accounting below; readers run beside the main client
	attempted int64
	failed    int64
	problems  []string
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// setNormalized reports the set-up time and the throughputs at the
// reference host's speed: each as measured, corrected by the speed its
// probes found (setupProbe's before the set-ups, probe's beside the
// measured work). The figures as measured and the speeds become
// per-layer figures.
func (r *run) setNormalized(setupProbe *speedProbe, setupLog *probeLog, probe *speedProbe, log *probeLog, setup, perCPU, perSec float64) {
	setupSpeed, _ := setupProbe.speed(setupLog)
	wall, cpu := probe.speed(log)
	r.setE2E("setup_s", "s", setup*setupSpeed)
	r.setE2E("norm_throughput_per_cpu_s", "1/s", perCPU/cpu)
	r.setE2E("norm_throughput_per_s", "1/s", perSec/wall)
	r.setLayer("raw.setup_s", "s", setup)
	r.setLayer("raw.throughput_per_cpu_s", "1/s", perCPU)
	r.setLayer("raw.throughput_per_s", "1/s", perSec)
	r.setLayer("host.setup_speed", "ratio", setupSpeed)
	r.setLayer("host.speed_wall", "ratio", wall)
	r.setLayer("host.speed_cpu", "ratio", cpu)
	logf("host speed against the reference host: %.3f wall, %.3f CPU over %d %s probes; %.3f over %d set-up probes (set-up %.4fs as measured)",
		wall, cpu, len(log.walls), probe.name, setupSpeed, len(setupLog.walls), setup)
}

// fail records a correctness violation; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

// op counts one attempted operation and whether it failed.
func (r *run) op(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"cold-profiles": coldProfiles,
	"hot-serving":   hotServing,
	"stream-ingest": streamIngest,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain())
		case "reference":
			os.Exit(referenceMain(os.Args[2:]))
		}
	}
	workload := flag.String("workload", "", "cold-profiles, hot-serving or stream-ingest")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seed >= 1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := execute(fn, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload. A traced execution runs it twice in the same
// process — untraced, then traced — and reports the traced pass's
// per-layer metrics with the overhead between the two passes' throughput.
func execute(fn func(*run) error, seed uint64, seconds float64, traced bool) (*result, error) {
	if _, err := os.Stat("perfbench/reference.json"); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	newRun := func(sub string) (*run, error) {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		return &run{ctx: ctx, seed: seed, seconds: seconds, dir: d, e2e: map[string]metric{}, layer: map[string]metric{}}, nil
	}
	plain, err := newRun("plain")
	if err != nil {
		return nil, err
	}
	steal0 := readSteal()
	if err := fn(plain); err != nil {
		return nil, err
	}
	logf("host steal: %.1f%% of CPU time during the run", stealPct(steal0, readSteal()))
	plain.setE2E("peak_rss_mb", "MiB", peakRSSMiB())
	final := plain
	metrics := plain.e2e
	if traced {
		tr, err := newRun("traced")
		if err != nil {
			return nil, err
		}
		tr.trace = newTracer()
		steal0 := readSteal()
		if err := fn(tr); err != nil {
			return nil, err
		}
		tr.setLayer("host.steal_pct", "%", stealPct(steal0, readSteal()))
		base, with := plain.e2e["norm_throughput_per_cpu_s"].Value, tr.e2e["norm_throughput_per_cpu_s"].Value
		tr.setLayer("trace.overhead_pct", "%", 100*(base-with)/base)
		if err := tr.trace.write(filepath.Join(".bench_build", "perfbench-trace")); err != nil {
			return nil, err
		}
		tr.attempted += plain.attempted
		tr.failed += plain.failed
		tr.problems = append(tr.problems, plain.problems...)
		final = tr
		metrics = tr.layer
	}
	return &result{
		Correct:   len(final.problems) == 0,
		Attempted: final.attempted,
		Failed:    final.failed,
		Metrics:   metrics,
	}, nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
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

// readSteal returns the machine's total and stolen CPU ticks from
// /proc/stat: time the hypervisor gave to other guests while this one
// had work. Stolen time inflates wall-clock figures but not the
// process's CPU time.
func readSteal() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var total, steal float64
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return [2]float64{total, steal}
}

func stealPct(a, b [2]float64) float64 {
	if b[0] <= a[0] {
		return 0
	}
	return 100 * (b[1] - a[1]) / (b[0] - a[0])
}
