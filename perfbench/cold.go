package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"smokescreen/internal/detect"
	"smokescreen/internal/server"
)

// coldRequest is one synchronous POST /v1/profiles of the cold batch.
type coldRequest struct {
	Query  string
	Ladder string
	// Corpus, class and aggregate of the query, for the exact answer.
	Corpus, Class, Agg string
	// View names the (corpus, view, resolution) the request detects on;
	// for random-only requests, the first request on a view costs
	// round(f_max·N) detector frames and every later one none.
	View       string
	RandomOnly bool
}

const (
	coldStep = 0.01
	coldMax  = 0.05
	// readerRate is the open-loop reader's fixed rate beside generation.
	readerRate = 50.0
	// boundDelta is the risk every served bound is promised at, and
	// boundAlpha the level at which more misses count as a violation.
	boundDelta = 0.05
	boundAlpha = 0.001
	// genSeed roots every generation's sampling. It is fixed, not taken
	// from --seed, so the detector-frame counts and the served bounds of
	// a workload repeat exactly from run to run; --seed varies the read
	// mix.
	genSeed = 1
)

// coldBatch is the fixed request list. Its order is part of the workload:
// later requests reuse what earlier ones detected.
var coldBatch = []coldRequest{
	{Query: "SELECT AVG(count(car)) FROM night-street", Corpus: "night-street", Class: "car", Agg: "AVG", View: "night-street", RandomOnly: true},
	{Query: "SELECT SUM(count(car)) FROM night-street", Corpus: "night-street", Class: "car", Agg: "SUM", View: "night-street", RandomOnly: true},
	{Query: "SELECT AVG(count(car)) FROM ua-detrac", Corpus: "ua-detrac", Class: "car", Agg: "AVG", View: "ua-detrac", RandomOnly: true},
	{Query: "SELECT AVG(count(person)) FROM ua-detrac", Corpus: "ua-detrac", Class: "person", Agg: "AVG", View: "ua-detrac", RandomOnly: true},
	{Query: "SELECT AVG(count(car)) FROM highway", Corpus: "highway", Class: "car", Agg: "AVG", View: "highway", RandomOnly: true},
	{Query: "SELECT AVG(count(car)) FROM ua-detrac RESOLUTION 320", Corpus: "ua-detrac", Class: "car", Agg: "AVG", View: "ua-detrac@320"},
	{Query: "SELECT SUM(count(car)) FROM ua-detrac RESOLUTION 320", Corpus: "ua-detrac", Class: "car", Agg: "SUM", View: "ua-detrac@320"},
	{Query: "SELECT AVG(count(car)) FROM highway NOISE 0.1", Corpus: "highway", Class: "car", Agg: "AVG", View: "highway+noise"},
	{Query: "SELECT AVG(count(car)) FROM night-street BLUR 7", Corpus: "night-street", Class: "car", Agg: "AVG", View: "night-street+blur"},
	{Query: "SELECT AVG(count(car)) FROM small", Ladder: "default", Corpus: "small", Class: "car", Agg: "AVG", View: "small ladder"},
}

// servedPoint is the part of a stored profile's point the checks read.
type servedPoint struct {
	Fraction float64 `json:"fraction"`
	Value    float64 `json:"value"`
	ErrBound float64 `json:"err_bound"`
	Sample   int     `json:"sample"`
	N        int     `json:"n"`
	Tier     string  `json:"tier"`
}

type servedProfile struct {
	Points []servedPoint `json:"points"`
}

// coldProfiles runs the cold batch in rounds, each against a fresh
// single-node daemon with empty detector caches and an empty store, until
// the measured time is used. Each round's set-up runs setupReps times
// and keeps the last daemon; setup_s is the median over every set-up.
// One closed-loop client sends the batch; one open-loop reader GETs, at
// a fixed low rate, profiles the round has already stored.
func coldProfiles(r *run) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	poster, reader := newClient(), newClient()
	defer closeClient(poster)
	defer closeClient(reader)
	probe, err := imageProbe()
	if err != nil {
		return err
	}
	defer probe.stop()
	var setupLog, roundLog probeLog

	var (
		batchTimes, setups []float64
		perCPU, perSec     []float64
		readLat            []float64
		readLate           []float64
		due, backlog       int
		first              [][]byte // round 1 bodies, every later round must match
		start              = time.Now()
	)
	if err := r.trace.begin(); err != nil {
		return err
	}
	for round := 0; round == 0 || time.Since(start).Seconds() < r.seconds; round++ {
		var d *daemon
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
			if d, err = coldSetup(r, poster, fmt.Sprintf("round%d-%d", round, rep)); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		// The round's probes run here, not between its requests: there
		// the collector finishing a request's last cycle and the reader
		// share the CPUs with them, and their wall times moved a third
		// as much as the batch's over ten runs.
		if err := probe.measure(probeReps, &roundLog); err != nil {
			return err
		}
		endSeg := r.trace.segment(func() map[string]int64 { return scrapeAll(r.ctx, poster, []*daemon{d}) })

		c0 := cpuSeconds()
		bodies, st, secs, err := coldRound(r, ref, d, poster, reader, round)
		if err != nil {
			return err
		}
		cpu := cpuSeconds() - c0
		endSeg()
		batchTimes = append(batchTimes, secs)
		perCPU = append(perCPU, float64(len(coldBatch))/cpu)
		perSec = append(perSec, float64(len(coldBatch))/secs)
		readLat = append(readLat, st.latencies...)
		readLate = append(readLate, st.LateP99Ms)
		due += st.Due
		backlog += st.Backlog
		if round == 0 {
			first = bodies
			checkColdProfiles(r, ref, bodies)
		} else {
			for i := range bodies {
				if !bytes.Equal(bodies[i], first[i]) {
					r.fail("round %d: %q returned other bytes than round 1", round, coldBatch[i].Query)
				}
			}
		}
		if err := d.stop(); err != nil {
			return err
		}
		logf("cold round %d: batch %.3fs, cpu %.3fs, reader %v", round, secs, cpu, st)
	}
	r.trace.end()
	if r.trace != nil {
		req := server.GenRequest{Query: coldBatch[0].Query, Seed: genSeed, Step: coldStep, MaxFraction: coldMax}
		if err := singleNodeProbes(r, poster, req); err != nil {
			return err
		}
	}

	batch := median(batchTimes)
	r.setNormalized(probe, &setupLog, probe, &roundLog, median(setups), median(perCPU), median(perSec))
	logf("cold-profiles: %d rounds, batch median %.3fs (%v), %.3f profiles per CPU-second, %.3f per second, reader p50 %.3fms p99 %.3fms over %d reads",
		len(batchTimes), batch, batchTimes, median(perCPU), median(perSec), percentile(readLat, 0.5), percentile(readLat, 0.99), len(readLat))
	if r.trace != nil {
		r.setLayer("reader.p50_ms", "ms", percentile(readLat, 0.5))
		r.setLayer("reader.p99_ms", "ms", percentile(readLat, 0.99))
		r.setLayer("openloop.due", "count", float64(due))
		r.setLayer("openloop.backlog", "count", float64(backlog))
		r.setLayer("openloop.late_p99_ms", "ms", median(readLate))
		return r.trace.report(r)
	}
	return nil
}

// coldSetup is one timed set-up of a round: the corpus load and a fresh
// single-node daemon over an empty store, up and answering.
func coldSetup(r *run, c *http.Client, sub string) (*daemon, error) {
	if err := loadCorpora("night-street", "ua-detrac", "highway", "small"); err != nil {
		return nil, err
	}
	d, err := startSingle(filepath.Join(r.dir, sub), 64<<20)
	if err != nil {
		return nil, err
	}
	if code, _, _, err := do(r.ctx, c, http.MethodGet, d.url+"/healthz", nil); err != nil || code != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("daemon health: %d %v", code, err)
	}
	return d, nil
}

// coldRound sends the batch once, with the reader beside it, and returns
// the response bodies, the reader's accounting and the batch wall time.
// The first round also checks each random-only request's detector frames.
func coldRound(r *run, ref *reference, d *daemon, poster, reader *http.Client, round int) ([][]byte, olStats, float64, error) {
	var (
		mu     sync.Mutex
		stored [][2]string // key, body
	)
	stop := make(chan struct{})
	readerStarted := make(chan struct{})
	var rs []olResult
	var rdue int
	var wg sync.WaitGroup
	wg.Add(1)
	rng := rand.New(rand.NewSource(int64(r.seed)*1000 + int64(round)))
	go func() {
		defer wg.Done()
		<-readerStarted
		rs, rdue = openLoop(r.ctx, time.Now(), readerRate, -1, stop, func(k int) bool {
			mu.Lock()
			kv := stored[rng.Intn(len(stored))]
			mu.Unlock()
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

	bodies := make([][]byte, len(coldBatch))
	views := map[string]bool{}
	t0 := time.Now()
	var err error
	for i, cr := range coldBatch {
		body, _ := json.Marshal(server.GenRequest{Query: cr.Query, Ladder: cr.Ladder, Seed: genSeed, Step: coldStep, MaxFraction: coldMax})
		inv := detect.Invocations()
		_, end := r.trace.span("http.post", 0)
		code, resp, hdr, perr := do(r.ctx, poster, http.MethodPost, d.url+"/v1/profiles", body)
		end()
		frames := detect.Invocations() - inv
		ok := perr == nil && code == http.StatusOK
		r.op(ok)
		if !ok {
			err = fmt.Errorf("POST %q: status %d: %v %s", cr.Query, code, perr, strings.TrimSpace(string(resp)))
			break
		}
		bodies[i] = resp
		if round == 0 && cr.RandomOnly {
			want := int64(0)
			if !views[cr.View] {
				want = int64(sampleSize(coldMax, ref.Means[cr.Corpus+"/"+cr.Class].N))
			}
			if frames != want {
				r.fail("%q: %d detector frames, the candidate design needs %d", cr.Query, frames, want)
			}
		}
		views[cr.View] = true
		mu.Lock()
		stored = append(stored, [2]string{hdr.Get("X-Smokescreen-Key"), string(resp)})
		mu.Unlock()
		if i == 0 {
			close(readerStarted)
		}
	}
	secs := time.Since(t0).Seconds()
	if len(stored) == 0 {
		close(readerStarted)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, olStats{}, 0, err
	}
	return bodies, summarize(readerRate, rdue, rs), secs, nil
}

// checkColdProfiles checks every point of the batch: its sample is the
// candidate design's f·N, and its bound covers the exact answer, with
// misses within the binomial allowance at delta.
func checkColdProfiles(r *run, ref *reference, bodies [][]byte) {
	var points, misses int
	var errSum float64
	for i, cr := range coldBatch {
		var p servedProfile
		if err := json.Unmarshal(bodies[i], &p); err != nil || len(p.Points) == 0 {
			r.fail("%q: unreadable profile: %v", cr.Query, err)
			continue
		}
		truth := ref.Means[cr.Corpus+"/"+cr.Class]
		for _, pt := range p.Points {
			points++
			errSum += pt.ErrBound
			if pt.N != truth.N {
				r.fail("%q: point N %d, corpus has %d frames", cr.Query, pt.N, truth.N)
			}
			if want := sampleSize(pt.Fraction, truth.N); pt.Sample != want {
				r.fail("%q f=%v: sample %d, want f·N = %d", cr.Query, pt.Fraction, pt.Sample, want)
			}
			exact := truth.Mean
			if cr.Agg == "SUM" {
				exact *= float64(truth.N)
			}
			if math.Abs(pt.Value-exact) > pt.ErrBound*math.Abs(exact)+1e-9 {
				misses++
			}
		}
	}
	if allowed := binomialAllowance(points, boundDelta, boundAlpha); misses > allowed {
		r.fail("%d of %d served bounds miss the exact answer; %d allowed at delta %v", misses, points, allowed, boundDelta)
	}
	logf("cold-profiles: %d points, %d bound misses (allowance %d)", points, misses, binomialAllowance(points, boundDelta, boundAlpha))
	r.setE2E("err_b_mean", "ratio", errSum/float64(points))
}
