package main

import (
	"fmt"
	"math"
	"testing"

	"smokescreen/internal/estimate"
	"smokescreen/internal/server"
	"smokescreen/internal/stream"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 100}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A failed request enters as +Inf and must be able to set the p99.
	withFail := []float64{1, 1, 1, math.Inf(1)}
	if got := percentile(withFail, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSelectCapacity(t *testing.T) {
	steps := []capacityStep{
		{Rate: 500, P99Ms: 5, Due: 1000},
		{Rate: 1000, P99Ms: 20, Due: 2000},             // misses the limit
		{Rate: 2000, P99Ms: 8, Due: 4000, Backlog: 40}, // 1% backlog: passes
		{Rate: 4000, P99Ms: 9, Due: 8000, Backlog: 81}, // backlog grows: fails
		{Rate: 8000, P99Ms: math.Inf(1), Due: 16000},   // a failure: fails
		{Rate: 300, P99Ms: 1, Due: 10, Backlog: 1},     // one spilled request is allowed
	}
	if got := selectCapacity(steps, 10); got != 2 {
		t.Errorf("selectCapacity = step %d, want step 2 (2000/s)", got)
	}
	if got := selectCapacity(steps[1:2], 10); got != -1 {
		t.Errorf("selectCapacity with no passing step = %d, want -1", got)
	}
}

func TestModuleAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Standard-library work counts toward the repository module that called it.
		{[]string{"compress/flate.(*compressor).deflate", "compress/flate.(*Writer).Write", "smokescreen/internal/codec.EncodeFrame", "smokescreen/internal/camera.(*Node).StreamCtx"}, "codec"},
		// The innermost repository frame wins over outer ones.
		{[]string{"smokescreen/internal/detect.(*Model).DetectFrame", "smokescreen/internal/outputs.compute.func1", "smokescreen/internal/parallel.ForCtx"}, "detect"},
		{[]string{"smokescreen/internal/analysis/passes/x.run"}, "analysis"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*conn).serve"}, "net"},
		{[]string{"main.hotStep.func1", "net/http.(*Client).Do"}, "bench"},
		{[]string{"runtime.futex", "runtime.mstart"}, "other"},
		{nil, "other"},
	} {
		if got := module(c.stack); got != c.want {
			t.Errorf("module(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSampleSize(t *testing.T) {
	for _, c := range []struct {
		f    float64
		n    int
		want int
	}{{0.05, 19463, 973}, {0.01, 15210, 152}, {0.05, 8000, 400}, {0.2, 1200, 240}, {0.0001, 1200, 1}, {0.025, 20, 1}, {0.075, 20, 2}} {
		if got := sampleSize(c.f, c.n); got != c.want {
			t.Errorf("sampleSize(%v, %d) = %d, want %d", c.f, c.n, got, c.want)
		}
	}
}

func TestWindowCount(t *testing.T) {
	for _, c := range []struct {
		positions, span, stride, want int
	}{
		{2400, 300, 150, 15},
		{2400, 300, 300, 8},
		{2399, 300, 150, 14}, // a trailing partial window is not emitted
		{299, 300, 150, 0},
		{300, 300, 150, 1},
	} {
		if got := windowCount(c.positions, c.span, c.stride); got != c.want {
			t.Errorf("windowCount(%d, %d, %d) = %d, want %d", c.positions, c.span, c.stride, got, c.want)
		}
	}
}

func TestBinomialAllowance(t *testing.T) {
	// Bin(48, 0.05): mean 2.4; P(X > 8) ≈ 5.5e-4 <= 1e-3 < P(X > 7) ≈ 2.4e-3.
	if got := binomialAllowance(48, 0.05, 0.001); got != 8 {
		t.Errorf("binomialAllowance(48) = %d, want 8", got)
	}
	// With no bounds there is nothing to miss.
	if got := binomialAllowance(0, 0.05, 0.001); got != 0 {
		t.Errorf("binomialAllowance(0) = %d, want 0", got)
	}
	// More points allow more misses, but far fewer than half.
	a100, a1000 := binomialAllowance(100, 0.05, 0.001), binomialAllowance(1000, 0.05, 0.001)
	if a100 >= a1000 || a1000 > 100 {
		t.Errorf("allowances 100 -> %d, 1000 -> %d not increasing and tight", a100, a1000)
	}
}

func newTestRun() *run {
	return &run{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// TestChecksRejectBadOutputs feeds the output checks served results that
// break each rule they enforce, and one set that keeps them all.
func TestChecksRejectBadOutputs(t *testing.T) {
	ref := &reference{Means: map[string]refMean{}}
	for _, cr := range coldBatch {
		ref.Means[cr.Corpus+"/"+cr.Class] = refMean{N: 1000, Mean: 2}
	}
	profile := func(sample int, value float64) []byte {
		return []byte(fmt.Sprintf(`{"points":[{"fraction":0.05,"value":%v,"err_bound":0.1,"sample":%d,"n":1000}]}`, value, sample))
	}
	bodies := func(sample int, value float64) [][]byte {
		var out [][]byte
		for _, cr := range coldBatch {
			v := value
			if cr.Agg == "SUM" {
				v *= 1000
			}
			out = append(out, profile(sample, v))
		}
		return out
	}
	good := newTestRun()
	checkColdProfiles(good, ref, bodies(50, 2.05))
	if len(good.problems) != 0 {
		t.Fatalf("good profiles rejected: %v", good.problems)
	}
	if got := good.e2e["err_b_mean"].Value; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("err_b_mean = %v, want 0.1", got)
	}
	wrongSample := newTestRun()
	checkColdProfiles(wrongSample, ref, bodies(49, 2.05))
	if len(wrongSample.problems) == 0 {
		t.Error("a sample other than f·N was accepted")
	}
	missing := newTestRun()
	checkColdProfiles(missing, ref, bodies(50, 2.5)) // every bound misses
	if len(missing.problems) == 0 {
		t.Error("bounds that all miss the exact answer were accepted")
	}

	series := make([]float64, 1200)
	for i := range series {
		series[i] = float64(i % 4) // every window's exact mean is 1.5
	}
	var windows []stream.WindowResult
	for seq := 0; seq < 15; seq++ {
		windows = append(windows, stream.WindowResult{Seq: seq, Lo: seq * 150, Hi: seq*150 + 300,
			Estimate: estimate.Estimate{Value: 1.6, ErrBound: 0.1}})
	}

	okStatus := &server.StreamStatus{Stream: stream.Status{Frames: 2 * sampleSize(ingestSample, 1200),
		Windows: windowCount(2*1200, ingestWindow, ingestStride), Sessions: ingestLoops}}
	sr := newTestRun()
	checkStreamCounts(sr, okStatus, windows, 1200)
	if len(sr.problems) != 0 {
		t.Fatalf("good stream counts rejected: %v", sr.problems)
	}
	short := *okStatus
	short.Stream.Windows--
	checkStreamCounts(sr, &short, windows, 1200)
	if len(sr.problems) == 0 {
		t.Error("a missing window was accepted")
	}
	gap := append(append([]stream.WindowResult(nil), windows[:6]...), windows[7:]...)
	sr = newTestRun()
	checkStreamCounts(sr, okStatus, gap, 1200)
	if len(sr.problems) == 0 {
		t.Error("served windows with a sequence gap were accepted")
	}

	wr := newTestRun()
	checkStreamWindows(wr, windows, series)
	if len(wr.problems) != 0 {
		t.Fatalf("covering windows rejected: %v", wr.problems)
	}
	for i := range windows {
		windows[i].Estimate.Value = 2
	}
	wr = newTestRun()
	checkStreamWindows(wr, windows, series)
	if len(wr.problems) == 0 {
		t.Error("window bounds that all miss were accepted")
	}
}

func TestCheckWindowSeqs(t *testing.T) {
	ws := func(seqs ...int) []stream.WindowResult {
		var out []stream.WindowResult
		for _, s := range seqs {
			out = append(out, stream.WindowResult{Seq: s})
		}
		return out
	}
	if err := checkWindowSeqs(ws(0, 1, 2), 3); err != nil {
		t.Errorf("whole sequence rejected: %v", err)
	}
	for _, bad := range [][]stream.WindowResult{ws(0, 2), ws(1, 2, 3), ws(0, 1, 1), ws(0, 1), ws(0, 1, 2, 3)} {
		if err := checkWindowSeqs(bad, 3); err == nil {
			t.Errorf("windows %v accepted as 0..2", bad)
		}
	}
}

func TestProbeSpeed(t *testing.T) {
	p := &speedProbe{refWall: 0.02, refCPU: 0.04}
	// The median probe took twice the reference time: half speed. The
	// outliers (a probe beside a collection, a preempted one) must not
	// move it.
	l := &probeLog{walls: []float64{0.04, 0.039, 0.2, 0.041, 0.001}, cpus: []float64{0.08, 0.5, 0.079, 0.081, 0.08}}
	wall, cpu := p.speed(l)
	if math.Abs(wall-0.5) > 1e-9 || math.Abs(cpu-0.5) > 1e-9 {
		t.Errorf("speed = %v wall, %v CPU; want 0.5 and 0.5", wall, cpu)
	}
	// A rate measured at half speed reads twice as high at the
	// reference speed, and a time half as long.
	if got := 100 / wall; got != 200 {
		t.Errorf("rate at reference speed = %v, want 200", got)
	}
}

func TestComponents(t *testing.T) {
	// Two blobs above the level (one L-shaped, joined only through a
	// later row) and pixels at the level, which do not count.
	const w = 5
	plane := []byte{
		9, 0, 0, 9, 9,
		9, 0, 5, 0, 9,
		9, 9, 9, 0, 9,
		0, 0, 0, 0, 0,
	}
	labels := make([]int32, len(plane))
	if got := components(plane, labels, w, 5); got != 2 {
		t.Errorf("components = %d, want 2", got)
	}
	// A U shape whose arms meet only at the bottom is one component.
	u := []byte{
		9, 0, 9,
		9, 0, 9,
		9, 9, 9,
	}
	if got := components(u, make([]int32, len(u)), 3, 5); got != 1 {
		t.Errorf("U-shaped components = %d, want 1", got)
	}
}

func TestProbeWork(t *testing.T) {
	for _, mk := range []func() (*speedProbe, error){imageProbe, codecProbe, loopbackProbe} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		var l probeLog
		if err := p.measure(2, &l); err != nil {
			t.Errorf("%s probe: %v", p.name, err)
		}
		if len(l.walls) != 2 || len(l.cpus) != 2 || l.walls[0] <= 0 || l.cpus[0] <= 0 {
			t.Errorf("%s probe logged %v walls, %v CPU", p.name, l.walls, l.cpus)
		}
		if err := p.stop(); err != nil {
			t.Errorf("%s probe stop: %v", p.name, err)
		}
	}
}
