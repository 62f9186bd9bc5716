package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
	"smokescreen/internal/server"
	"smokescreen/internal/stream"
)

// The stream job every POST /v1/streams of the workload asks for: the
// small corpus at the default model's native resolution, sliding windows
// with drift detection on, several camera loops.
const (
	ingestCorpus = "small"
	ingestWindow = 300
	ingestStride = 150
	ingestSample = 0.05
	ingestLoops  = 2
)

// ingestRequest is the workload's job-th stream job. Each job's camera
// samples with its own seeds (one per loop), so jobs do not replay each
// other's frames through the render cache.
func ingestRequest(job int) server.StreamRequest {
	return server.StreamRequest{Dataset: ingestCorpus, Window: ingestWindow, Stride: ingestStride,
		Sample: ingestSample, Loops: ingestLoops, Seed: genSeed + uint64(job*ingestLoops)}
}

// streamIngest runs stream jobs back to back on a single-node daemon,
// beside an open-loop reader of stored profiles. Set-up computes the
// corpus's drift baseline, as the daemon's first stream job would, so
// every timed job does the same work: stream, detect and fold frames.
func streamIngest(r *run) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	series := ref.Series[ingestCorpus+"/car"]
	c, reader := newClient(), newClient()
	defer closeClient(c)
	defer closeClient(reader)

	probe, err := codecProbe()
	if err != nil {
		return err
	}
	defer probe.stop()
	var setupLog, jobLog probeLog
	var (
		d       *daemon
		stored  [][2]string
		setups  []float64
		readReq = []server.GenRequest{
			{Query: "SELECT AVG(count(car)) FROM small", Seed: genSeed, Step: 0.02, MaxFraction: 0.1},
			{Query: "SELECT SUM(count(car)) FROM small", Seed: genSeed, Step: 0.02, MaxFraction: 0.1},
		}
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		settle()
		if err := probe.measure(probeReps, &setupLog); err != nil {
			return err
		}
		t0 := time.Now()
		if err := loadCorpora(ingestCorpus); err != nil {
			return err
		}
		d, err = startSingle(filepath.Join(r.dir, fmt.Sprintf("daemon%d", rep)), 64<<20)
		if err != nil {
			return err
		}
		stored = stored[:0]
		for _, req := range readReq {
			body, _ := json.Marshal(req)
			code, payload, hdr, err := do(r.ctx, c, http.MethodPost, d.url+"/v1/profiles", body)
			if err != nil || code != http.StatusOK {
				d.stop()
				return fmt.Errorf("set-up POST %q: status %d: %v", req.Query, code, err)
			}
			stored = append(stored, [2]string{hdr.Get("X-Smokescreen-Key"), string(payload)})
		}
		if _, err := ingestBaseline(r.ctx); err != nil {
			d.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	runtime.GC()

	stop := make(chan struct{})
	var rs []olResult
	var rdue int
	var wg sync.WaitGroup
	wg.Add(1)
	rng := rand.New(rand.NewSource(int64(r.seed)))
	go func() {
		defer wg.Done()
		rs, rdue = openLoop(r.ctx, time.Now(), readerRate, -1, stop, func(k int) bool {
			kv := stored[rng.Intn(len(stored))]
			_, end := r.trace.span("http.get", 0)
			code, body, _, err := do(r.ctx, reader, http.MethodGet, d.url+"/v1/profiles/"+kv[0], nil)
			end()
			ok := err == nil && code == http.StatusOK
			if ok && !bytes.Equal(body, []byte(kv[1])) {
				r.fail("GET %s returned other bytes than its POST", kv[0])
			}
			r.op(ok)
			return ok
		})
	}()

	if err := r.trace.begin(); err != nil {
		close(stop)
		wg.Wait()
		return err
	}
	var rates, perCPU []float64
	var windows, firstWindows []stream.WindowResult
	var jobErr error
	start := time.Now()
	for job := 0; job == 0 || time.Since(start).Seconds() < r.seconds; job++ {
		if err := probe.measure(2, &jobLog); err != nil {
			jobErr = err
			break
		}
		endSeg := r.trace.segment(func() map[string]int64 { return scrapeAll(r.ctx, c, []*daemon{d}) })
		c0 := cpuSeconds()
		st, served, secs, err := runStreamJob(r, c, d, job)
		cpu := cpuSeconds() - c0
		endSeg()
		r.op(err == nil)
		if err != nil {
			jobErr = err
			break
		}
		checkStreamCounts(r, st, served, len(series))
		windows = append(windows, served...)
		rates = append(rates, float64(st.Stream.Frames)/secs)
		perCPU = append(perCPU, float64(st.Stream.Frames)/cpu)
		logf("stream job %d: %d frames, %d windows in %.3fs, %.3f CPU-s (%.1f frames/s, %.1f per CPU-second)",
			job, st.Stream.Frames, st.Stream.Windows, secs, cpu, float64(st.Stream.Frames)/secs, float64(st.Stream.Frames)/cpu)
		if job == 0 {
			firstWindows = served
		}
	}
	r.trace.end()
	close(stop)
	wg.Wait()
	if jobErr != nil {
		return jobErr
	}
	rd := summarize(readerRate, rdue, rs)
	logf("stream-ingest reader: %v", rd)
	r.setNormalized(probe, &setupLog, probe, &jobLog, median(setups), median(perCPU), median(rates))
	logf("stream-ingest: %.1f frames/s of job wall time, %.1f per CPU-second", median(rates), median(perCPU))
	checkStreamWindows(r, windows, series)
	// The first job's camera seeds are the same in every run, so the mean
	// bound over its windows repeats exactly; later jobs vary in number.
	var errSum float64
	for _, w := range firstWindows {
		errSum += w.Estimate.ErrBound
	}
	r.setE2E("err_b_mean", "ratio", errSum/float64(len(firstWindows)))

	if r.trace == nil {
		return nil
	}
	r.setLayer("openloop.due", "count", float64(rd.Due))
	r.setLayer("openloop.backlog", "count", float64(rd.Backlog))
	r.setLayer("openloop.late_p99_ms", "ms", rd.LateP99Ms)
	r.setLayer("reader.p50_ms", "ms", rd.P50Ms)
	r.setLayer("reader.p99_ms", "ms", rd.P99Ms)
	req := server.GenRequest{Query: readReq[0].Query, Seed: genSeed, Step: 0.02, MaxFraction: 0.1}
	if err := singleNodeProbes(r, c, req); err != nil {
		return err
	}
	return r.trace.report(r)
}

// runStreamJob starts the job-th stream job and polls it to its end. It
// returns the final status, every window the daemon served while it ran,
// in sequence, and the job's wall time in seconds. A window completes
// every 130–220 ms and the poll runs every 10 ms, so each window is
// seen; checkStreamCounts fails the job if one was not.
func runStreamJob(r *run, c *http.Client, d *daemon, job int) (*server.StreamStatus, []stream.WindowResult, float64, error) {
	body, _ := json.Marshal(ingestRequest(job))
	t0 := time.Now()
	_, end := r.trace.span("http.stream", 0)
	defer end()
	code, resp, _, err := do(r.ctx, c, http.MethodPost, d.url+"/v1/streams", body)
	if err != nil || code/100 != 2 {
		return nil, nil, 0, fmt.Errorf("POST /v1/streams: status %d: %v %s", code, err, resp)
	}
	var st server.StreamStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, nil, 0, err
	}
	var served []stream.WindowResult
	for {
		select {
		case <-r.ctx.Done():
			return nil, nil, 0, r.ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		code, resp, _, err := do(r.ctx, c, http.MethodGet, d.url+"/v1/streams/"+st.ID, nil)
		if err != nil || code != http.StatusOK {
			return nil, nil, 0, fmt.Errorf("GET /v1/streams/%s: status %d: %v", st.ID, code, err)
		}
		var cur server.StreamStatus
		if err := json.Unmarshal(resp, &cur); err != nil {
			return nil, nil, 0, err
		}
		if w := cur.Stream.LastWindow; w != nil && (len(served) == 0 || served[len(served)-1].Seq != w.Seq) {
			served = append(served, *w)
		}
		switch cur.State {
		case server.JobDone:
			return &cur, served, time.Since(t0).Seconds(), nil
		case server.JobFailed, server.JobCanceled:
			return nil, nil, 0, fmt.Errorf("stream %s: %s: %s", st.ID, cur.State, cur.Error)
		}
	}
}

// checkStreamCounts checks a finished job against the window arithmetic
// over the positions the camera sent: every loop sends f·N frames of an
// N-frame corpus, and every whole window of the L·N positions completes.
// The windows the daemon served must be those windows, numbered 0 to
// W-1 without a gap.
func checkStreamCounts(r *run, st *server.StreamStatus, served []stream.WindowResult, n int) {
	wantFrames := ingestLoops * sampleSize(ingestSample, n)
	wantWindows := windowCount(ingestLoops*n, ingestWindow, ingestStride)
	s := st.Stream
	if s.Frames != wantFrames || s.Windows != wantWindows || s.Late != 0 || s.Sessions != ingestLoops {
		r.fail("stream: %d frames, %d windows, %d late, %d sessions; want %d, %d, 0, %d",
			s.Frames, s.Windows, s.Late, s.Sessions, wantFrames, wantWindows, ingestLoops)
	}
	if err := checkWindowSeqs(served, wantWindows); err != nil {
		r.fail("stream: served windows: %v", err)
	}
}

// checkStreamWindows checks every window the daemon served: each bound
// covers the mean count over the window's positions, with misses within
// the binomial allowance at delta.
func checkStreamWindows(r *run, windows []stream.WindowResult, series []float64) {
	if len(windows) == 0 {
		r.fail("stream: no windows to check")
		return
	}
	var misses int
	for _, w := range windows {
		var sum float64
		for pos := w.Lo; pos < w.Hi; pos++ {
			sum += series[pos%len(series)]
		}
		exact := sum / float64(w.Hi-w.Lo)
		if math.Abs(w.Estimate.Value-exact) > w.Estimate.ErrBound*math.Abs(exact)+1e-9 {
			misses++
		}
	}
	allowed := binomialAllowance(len(windows), boundDelta, boundAlpha)
	if misses > allowed {
		r.fail("stream: %d of %d window bounds miss the exact aggregate; %d allowed", misses, len(windows), allowed)
	}
	logf("stream-ingest: %d windows, %d bound misses (allowance %d)", len(windows), misses, allowed)
}

// ingestBaseline is the drift baseline of the streamed corpus, computed
// as the daemon computes it for a stream job (full detection at the
// transmitted resolution, cached in the detector-output store).
func ingestBaseline(ctx context.Context) (*stream.Baseline, error) {
	v, err := dataset.Load(ingestCorpus)
	if err != nil {
		return nil, err
	}
	model, err := detect.ModelByName("yolov4-sim")
	if err != nil {
		return nil, err
	}
	return stream.CorpusBaseline(ctx, v, model, scene.Car, model.NativeInput)
}
