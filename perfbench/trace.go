package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/plan"
	"smokescreen/internal/stream"
	"smokescreen/internal/transport"
)

// modules are the layers CPU time is attributed to, in report order: the
// repository's internal packages a workload can reach, the benchmark's
// own client code, and the three buckets for samples with no repository
// frame.
var modules = []string{
	"scene", "raster", "degrade", "detect", "outputs", "plan", "estimate", "stats", "profile",
	"core", "query", "dataset", "parallel", "store", "server", "fleetd",
	"camera", "codec", "transport", "stream", "bench", "runtime.gc", "net", "other",
}

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not reach reads 0.
var layerMetrics = func() [][2]string {
	var out [][2]string
	for _, m := range modules {
		name := m + ".cpu_s"
		if m == "runtime.gc" {
			name = "runtime.gc_cpu_s"
		}
		out = append(out, [2]string{name, "s"})
	}
	return append(out, [][2]string{
		{"detect.frames", "frames"}, {"detect.render_hits", "count"}, {"detect.render_misses", "count"},
		{"detect.cache_bytes", "bytes"}, {"degrade.view_bytes", "bytes"},
		{"outputs.frames_detected", "frames"}, {"outputs.frame_hits", "frames"},
		{"plan.stage_plan_s", "s"}, {"plan.stage_detect_s", "s"}, {"plan.stage_estimate_s", "s"},
		{"store.mem_hits", "count"}, {"store.disk_hits", "count"}, {"store.misses", "count"}, {"store.puts", "count"},
		{"store.get_us", "us"}, {"store.put_ms", "ms"},
		{"server.handler_us", "us"}, {"server.key_us", "us"}, {"server.generations", "count"}, {"server.coalesced", "count"},
		{"fleetd.handler_local_us", "us"}, {"fleetd.handler_forward_us", "us"},
		{"fleetd.forwards", "count"}, {"fleetd.forwards_coalesced", "count"}, {"fleetd.local_requests", "count"},
		{"fleetd.replica_writes", "count"}, {"fleetd.repairs", "count"},
		{"transport.bytes", "bytes"}, {"stream.frames", "frames"}, {"stream.windows", "count"},
		{"stream.late", "frames"}, {"stream.drifts", "count"},
		{"runtime.gc_cycles", "count"}, {"runtime.heap_peak_mb", "MiB"},
		{"http.roundtrip_us", "us"},
		{"openloop.due", "count"}, {"openloop.backlog", "count"}, {"openloop.late_p99_ms", "ms"},
		{"openloop.capacity_rps", "1/s"}, {"reader.p50_ms", "ms"}, {"reader.p99_ms", "ms"}, {"host.steal_pct", "%"},
		{"trace.overhead_pct", "%"},
		{"raw.setup_s", "s"}, {"raw.throughput_per_cpu_s", "1/s"}, {"raw.throughput_per_s", "1/s"},
		{"host.setup_speed", "ratio"}, {"host.speed_wall", "ratio"}, {"host.speed_cpu", "ratio"},
	}...)
}()

// counters is a snapshot of the program's public counters; the per-layer
// counts are differences between two snapshots.
type counters struct {
	invocations, renderHits, renderMisses int64
	framesDetected, frameHits             int64
	planNS, detectNS, estimateNS          int64
	transportBytes                        int64
	streamFrames, windows, late, drifts   int64
	gcCycles                              int64
	daemon                                map[string]int64 // summed /metrics of the workload's nodes
}

func readCounters(daemon map[string]int64) counters {
	ds := detect.Stats()
	oc := outputs.ReadStats()
	ps := plan.Stages()
	st := stream.Totals()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		invocations: detect.Invocations(), renderHits: ds.RenderHits, renderMisses: ds.RenderMisses,
		framesDetected: oc.FramesDetected, frameHits: oc.FrameHits,
		planNS: ps.PlanNS, detectNS: ps.DetectNS, estimateNS: ps.EstimateNS,
		transportBytes: transport.Totals().BytesSent,
		streamFrames:   st.Frames, windows: st.Windows, late: st.Late, drifts: st.Drifts,
		gcCycles: int64(ms.NumGC),
		daemon:   daemon,
	}
}

type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// tracer collects a traced run's spans, CPU profile and counter deltas.
// Spans are kept in memory and written when the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	sum   map[string]float64 // accumulated counter deltas
	cpu   bytes.Buffer

	heapPeak    atomic.Uint64
	stopSampler chan struct{}
	samplerDone chan struct{}
	profiled    time.Duration
	started     time.Time
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]float64{}}
}

// span starts a span and returns its id and the function that ends it.
// A nil tracer records nothing.
func (t *tracer) span(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.nextID.Add(1)
	start := time.Now()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			StartUs: float64(start.Sub(t.t0)) / 1e3, DurUs: float64(end.Sub(start)) / 1e3})
		t.mu.Unlock()
	}
}

// spanMedian is the median duration in microseconds of the named spans.
func (t *tracer) spanMedian(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.DurUs)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

// begin starts the CPU profile and the heap sampler for the measured phase.
func (t *tracer) begin() error {
	if t == nil {
		return nil
	}
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return err
	}
	t.started = time.Now()
	t.stopSampler = make(chan struct{})
	t.samplerDone = make(chan struct{})
	go func() {
		defer close(t.samplerDone)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > t.heapPeak.Load() {
				t.heapPeak.Store(v)
			}
			select {
			case <-t.stopSampler:
				return
			case <-tick.C:
			}
		}
	}()
	return nil
}

// end stops the CPU profile and the sampler.
func (t *tracer) end() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	t.profiled = time.Since(t.started)
	close(t.stopSampler)
	<-t.samplerDone
}

// segment snapshots the counters and returns the function that adds the
// deltas since then to the run's totals. Workloads that reset the
// detector caches (which zero some counters) call it once per round.
func (t *tracer) segment(scrape func() map[string]int64) func() {
	if t == nil {
		return func() {}
	}
	before := readCounters(scrape())
	return func() {
		after := readCounters(scrape())
		t.mu.Lock()
		defer t.mu.Unlock()
		add := func(name string, v float64) { t.sum[name] += v }
		add("detect.frames", float64(after.invocations-before.invocations))
		add("detect.render_hits", float64(after.renderHits-before.renderHits))
		add("detect.render_misses", float64(after.renderMisses-before.renderMisses))
		add("outputs.frames_detected", float64(after.framesDetected-before.framesDetected))
		add("outputs.frame_hits", float64(after.frameHits-before.frameHits))
		add("plan.stage_plan_s", float64(after.planNS-before.planNS)/1e9)
		add("plan.stage_detect_s", float64(after.detectNS-before.detectNS)/1e9)
		add("plan.stage_estimate_s", float64(after.estimateNS-before.estimateNS)/1e9)
		add("transport.bytes", float64(after.transportBytes-before.transportBytes))
		add("stream.frames", float64(after.streamFrames-before.streamFrames))
		add("stream.windows", float64(after.windows-before.windows))
		add("stream.late", float64(after.late-before.late))
		add("stream.drifts", float64(after.drifts-before.drifts))
		add("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
		for name, metricName := range daemonCounters {
			add(name, float64(after.daemon[metricName]-before.daemon[metricName]))
		}
		ds := detect.Stats()
		t.sum["detect.cache_bytes"] = float64(ds.TotalBytes())
		t.sum["degrade.view_bytes"] = float64(ds.ViewBytes)
	}
}

// daemonCounters maps per-layer names to the daemon's /metrics counters.
var daemonCounters = map[string]string{
	"store.mem_hits":            "smokescreend_store_cache_hits_total",
	"store.disk_hits":           "smokescreend_store_disk_hits_total",
	"store.misses":              "smokescreend_store_misses_total",
	"store.puts":                "smokescreend_store_puts_total",
	"server.generations":        "smokescreend_generations_total",
	"server.coalesced":          "smokescreend_requests_coalesced_total",
	"fleetd.forwards":           "smokescreend_fleet_forwards_total",
	"fleetd.forwards_coalesced": "smokescreend_fleet_forwards_coalesced_total",
	"fleetd.local_requests":     "smokescreend_fleet_local_requests_total",
	"fleetd.replica_writes":     "smokescreend_fleet_replica_writes_total",
	"fleetd.repairs":            "smokescreend_fleet_repairs_total",
}

// report attributes the CPU profile to modules, fills every per-layer
// metric of r, and prints the module shares beside the pipeline's own
// stage accounting (plan.Stages), which credits presence scans to plan
// while the profile finds that time in detect.
func (t *tracer) report(r *run) error {
	samples, err := decodeCPUProfile(t.cpu.Bytes())
	if err != nil {
		return err
	}
	cpu := map[string]float64{}
	var total float64
	for _, s := range samples {
		sec := float64(s.NS) / 1e9
		cpu[module(s.Stack)] += sec
		total += sec
	}
	for _, m := range layerMetrics {
		if _, ok := r.layer[m[0]]; !ok {
			r.layer[m[0]] = metric{0, m[1]}
		}
	}
	for _, m := range modules {
		name := m + ".cpu_s"
		if m == "runtime.gc" {
			name = "runtime.gc_cpu_s"
		}
		r.setLayer(name, "s", cpu[m])
	}
	t.mu.Lock()
	for name, v := range t.sum {
		unit := "count"
		for _, m := range layerMetrics {
			if m[0] == name {
				unit = m[1]
			}
		}
		r.setLayer(name, unit, v)
	}
	t.mu.Unlock()
	r.setLayer("runtime.heap_peak_mb", "MiB", float64(t.heapPeak.Load())/(1<<20))

	logf("traced phase: %.2fs wall, %.2fs CPU over %d distinct stacks", t.profiled.Seconds(), total, len(samples))
	type share struct {
		name string
		sec  float64
	}
	var shares []share
	for m, v := range cpu {
		shares = append(shares, share{m, v})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].sec > shares[j].sec })
	for _, s := range shares {
		logf("  cpu %-11s %7.3fs %5.1f%%", s.name, s.sec, 100*s.sec/total)
	}
	stages := r.layer["plan.stage_plan_s"].Value + r.layer["plan.stage_detect_s"].Value + r.layer["plan.stage_estimate_s"].Value
	if stages > 0 {
		logf("  plan.Stages (wall, overlapping): plan %.3fs (%.1f%%)  detect %.3fs (%.1f%%)  estimate %.3fs (%.1f%%)",
			r.layer["plan.stage_plan_s"].Value, 100*r.layer["plan.stage_plan_s"].Value/stages,
			r.layer["plan.stage_detect_s"].Value, 100*r.layer["plan.stage_detect_s"].Value/stages,
			r.layer["plan.stage_estimate_s"].Value, 100*r.layer["plan.stage_estimate_s"].Value/stages)
		logf("  profile shares of the same work: plan %.1f%%  detect+scene+raster+degrade %.1f%%  estimate+stats %.1f%%",
			100*cpu["plan"]/total, 100*(cpu["detect"]+cpu["scene"]+cpu["raster"]+cpu["degrade"])/total,
			100*(cpu["estimate"]+cpu["stats"])/total)
	}
	return nil
}

// write stores the spans and the raw CPU profile under dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), t.cpu.Bytes(), 0o644)
}
