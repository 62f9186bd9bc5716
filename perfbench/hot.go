package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"smokescreen/internal/detect"
	"smokescreen/internal/fleetd"
	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

const (
	fleetNodes    = 3
	fleetReplicas = 2
	// hotCacheBytes is each node's in-memory store budget: about half of
	// the ~0.6 KiB payloads a node holds replicas of fit, so the cold
	// keys of the skewed mix are served from disk.
	hotCacheBytes = 3 << 10
	// hotLimitMs is the p99 latency limit a rate step must meet.
	hotLimitMs = 50.0
	// setupReps is how many times a workload's set-up runs (in
	// cold-profiles, each round's); setup_s is the median of them all.
	setupReps = 3
	// zipfS is the key-popularity skew of the hot reads.
	zipfS = 1.1
)

// hotRates are the fixed offered rates of a traced run's open-loop
// sweep, in requests per second. The first is the reference rate the
// latency is read at. The last may exceed what the fleet serves, which
// the capacity figure shows.
var hotRates = []float64{500, 1000, 2000, 4000, 8000}

// hotKeys is the fixed key set generated in set-up: small-corpus
// profiles over two aggregates and eight sample seeds.
func hotKeys() []server.GenRequest {
	var reqs []server.GenRequest
	for i := uint64(0); i < 8; i++ {
		for _, agg := range []string{"AVG", "SUM"} {
			reqs = append(reqs, server.GenRequest{
				Query: fmt.Sprintf("SELECT %s(count(car)) FROM small", agg),
				Seed:  genSeed + i, Step: 0.02, MaxFraction: 0.1,
			})
		}
	}
	return reqs
}

type hotKey struct {
	key     string
	payload []byte
	req     server.GenRequest
}

// hotServing serves reads of a pre-generated key set from a three-node
// fleet, with skewed key choice: closed loop in every run, after an
// open-loop sweep of a few fixed rates in a traced run.
func hotServing(r *run) error {
	c := newClient()
	defer closeClient(c)

	setupProbe, err := imageProbe()
	if err != nil {
		return err
	}
	defer setupProbe.stop()
	probe, err := loopbackProbe()
	if err != nil {
		return err
	}
	defer probe.stop()
	var setupLog, sliceLog probeLog

	var (
		ds     []*daemon
		nodes  []*fleetd.Node
		keys   []hotKey
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if ds != nil {
			if err := stopAll(ds); err != nil {
				return err
			}
		}
		settle()
		if err := setupProbe.measure(probeReps, &setupLog); err != nil {
			return err
		}
		t0 := time.Now()
		if err := loadCorpora("small"); err != nil {
			return err
		}
		ds, nodes, err = startFleet(filepath.Join(r.dir, fmt.Sprintf("fleet%d", rep)), fleetNodes, fleetReplicas, hotCacheBytes)
		if err != nil {
			return err
		}
		keys = keys[:0]
		for i, req := range hotKeys() {
			body, _ := json.Marshal(req)
			code, payload, hdr, err := do(r.ctx, c, http.MethodPost, ds[i%len(ds)].url+"/v1/profiles", body)
			if err != nil || code != http.StatusOK {
				stopAll(ds)
				return fmt.Errorf("set-up POST %q: status %d: %v", req.Query, code, err)
			}
			keys = append(keys, hotKey{key: hdr.Get("X-Smokescreen-Key"), payload: payload, req: req})
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer stopAll(ds)
	runtime.GC()

	var errSum float64
	var points, size int
	for _, k := range keys {
		size += len(k.payload)
		var p servedProfile
		if err := json.Unmarshal(k.payload, &p); err != nil {
			return fmt.Errorf("set-up profile %s: %w", k.key, err)
		}
		for _, pt := range p.Points {
			errSum += pt.ErrBound
			points++
		}
	}
	r.setE2E("err_b_mean", "ratio", errSum/float64(points))
	logf("hot-serving: %d keys, %d payload bytes, %d cache bytes per node", len(keys), size, hotCacheBytes)

	clients := []*http.Client{newClient(), newClient()}
	for _, cl := range clients {
		defer closeClient(cl)
	}
	scrape := func() map[string]int64 { return scrapeAll(r.ctx, c, ds) }
	before := scrape()
	inv := detect.Invocations()
	if err := r.trace.begin(); err != nil {
		return err
	}
	endSeg := r.trace.segment(scrape)
	// Only the two read clients hold connections while timing.
	closeClient(c)
	// The open-loop rate sweep feeds only per-layer figures, so only a
	// traced run makes it, before the closed loop that every run times
	// for the full measured time.
	var steps []olStats
	if r.trace != nil {
		stepSecs := r.seconds / float64(len(hotRates))
		for si, rate := range hotRates {
			s0 := cpuSeconds()
			steps = append(steps, hotStep(r, ds, clients, keys, si, rate, stepSecs))
			logf("hot-serving step %d: %v cpu/read %.1fus", si, steps[si], 1e6*(cpuSeconds()-s0)/float64(steps[si].Sent))
		}
	}
	var perCPU, perSec []float64
	loop := newHotLoop(r, ds, clients, keys)
	for start := time.Now(); time.Since(start).Seconds() < r.seconds; {
		if err := probe.measure(1, &sliceLog); err != nil {
			return err
		}
		c0 := cpuSeconds()
		reads, secs := loop.run(hotSlice)
		perSec = append(perSec, float64(reads)/secs)
		perCPU = append(perCPU, float64(reads)/(cpuSeconds()-c0))
	}
	endSeg()
	r.trace.end()
	after := scrape()
	if g := after["smokescreend_generations_total"] - before["smokescreend_generations_total"]; g != 0 {
		r.fail("%d generations ran during timing", g)
	}
	if d := detect.Invocations() - inv; d != 0 {
		r.fail("%d detector frames ran during timing", d)
	}
	fwd := after["smokescreend_fleet_forwards_total"] - before["smokescreend_fleet_forwards_total"]
	local := after["smokescreend_fleet_local_requests_total"] - before["smokescreend_fleet_local_requests_total"]
	r.setNormalized(setupProbe, &setupLog, probe, &sliceLog, median(setups), median(perCPU), median(perSec))
	logf("hot-serving closed loop: %d slices, %.0f reads/s, %.0f reads per CPU-second; %d forwarded, %d served locally",
		len(perSec), median(perSec), median(perCPU), fwd, local)
	checkEveryNode(r, c, ds, keys)

	if r.trace == nil {
		return nil
	}
	var cs []capacityStep
	var due, backlog int
	var late []float64
	for _, s := range steps {
		cs = append(cs, capacityStep{Rate: s.Rate, P99Ms: s.P99Ms, Due: s.Due, Backlog: s.Backlog})
		due += s.Due
		backlog += s.Backlog
		late = append(late, s.LateP99Ms)
	}
	capacity := 0.0
	if best := selectCapacity(cs, hotLimitMs); best >= 0 {
		capacity = steps[best].Rate
	}
	logf("hot-serving: capacity %.0f/s at a %.0f ms p99 limit", capacity, hotLimitMs)
	r.setLayer("openloop.due", "count", float64(due))
	r.setLayer("openloop.backlog", "count", float64(backlog))
	r.setLayer("openloop.late_p99_ms", "ms", median(late))
	r.setLayer("openloop.capacity_rps", "1/s", capacity)
	r.setLayer("reader.p50_ms", "ms", steps[0].P50Ms)
	r.setLayer("reader.p99_ms", "ms", steps[0].P99Ms)

	// Probe node 0: a key it holds a replica of, and one it must forward.
	ring := nodes[0].Ring()
	p := probes{store: ds[0].store, fleetH: ds[0].handler, genRequest: keys[0].req}
	for _, k := range keys {
		if ring.IsReplica(k.key, nodes[0].Self()) {
			p.key, p.localKey, p.payload = k.key, k.key, k.payload
		} else {
			p.forwardKey = k.key
		}
	}
	if p.localKey == "" || p.forwardKey == "" {
		return fmt.Errorf("key set does not give node 0 both a local and a forwarded key")
	}
	putStore, err := store.Open(filepath.Join(r.dir, "probe-put"))
	if err != nil {
		return err
	}
	p.putStore = putStore
	svc, err := server.New(server.Config{Store: ds[0].store, Generator: &server.SystemGenerator{}})
	if err != nil {
		return err
	}
	defer svc.Close()
	p.serverH = svc.Handler()
	p.roundTripURL = ds[0].url + "/v1/profiles/" + p.forwardKey
	if err := p.run(r, c); err != nil {
		return err
	}
	return r.trace.report(r)
}

// hotStep runs one open-loop rate step: two client goroutines, each with
// one connection to its own node, share the schedule; keys follow a Zipf
// popularity fixed by the seed and the step.
func hotStep(r *run, ds []*daemon, clients []*http.Client, keys []hotKey, step int, rate, secs float64) olStats {
	per := int(rate*secs) / len(clients)
	start := time.Now().Add(5 * time.Millisecond)
	var mu sync.Mutex
	var all []olResult
	var wg sync.WaitGroup
	for g, cl := range clients {
		wg.Add(1)
		go func(g int, cl *http.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r.seed)*1000 + int64(step)*10 + int64(g)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
			seq := make([]int, per)
			for i := range seq {
				seq[i] = int(zipf.Uint64())
			}
			offset := time.Duration(float64(g) * float64(time.Second) / rate)
			rs, _ := openLoop(r.ctx, start.Add(offset), rate/float64(len(clients)), per, nil, func(k int) bool {
				_, end := r.trace.span("http.get", 0)
				defer end()
				return hotRead(r, cl, ds[g], g, keys[seq[k]])
			})
			mu.Lock()
			all = append(all, rs...)
			mu.Unlock()
		}(g, cl)
	}
	wg.Wait()
	return summarize(rate, per*len(clients), all)
}

// hotSlice is the length of one closed-loop slice; a host-speed probe
// runs before each.
const hotSlice = 1.0

// hotLoop is the closed loop: each client sends reads to its node back
// to back, keys drawn as in the rate steps, in slices with the clients
// idle between them. A traced run records one span around each slice,
// not one per read: the round trip is timed apart, by the probes.
type hotLoop struct {
	r       *run
	ds      []*daemon
	clients []*http.Client
	keys    []hotKey
	zipfs   []*rand.Zipf
}

func newHotLoop(r *run, ds []*daemon, clients []*http.Client, keys []hotKey) *hotLoop {
	l := &hotLoop{r: r, ds: ds, clients: clients, keys: keys}
	for g := range clients {
		rng := rand.New(rand.NewSource(int64(r.seed)*1000 + int64(len(hotRates))*10 + int64(g)))
		l.zipfs = append(l.zipfs, rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1)))
	}
	return l
}

// run runs one slice of secs and returns the reads both clients
// completed and the slice's wall time.
func (l *hotLoop) run(secs float64) (int, float64) {
	_, end := l.r.trace.span("hot.closed_loop", 0)
	defer end()
	var wg sync.WaitGroup
	counts := make([]int, len(l.clients))
	t0 := time.Now()
	deadline := t0.Add(time.Duration(secs * float64(time.Second)))
	for g, cl := range l.clients {
		wg.Add(1)
		go func(g int, cl *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) && l.r.ctx.Err() == nil {
				if hotRead(l.r, cl, l.ds[g], g, l.keys[l.zipfs[g].Uint64()]) {
					counts[g]++
				}
			}
		}(g, cl)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n, time.Since(t0).Seconds()
}

// hotRead GETs one key from node g and checks the bytes against set-up.
func hotRead(r *run, c *http.Client, d *daemon, g int, hk hotKey) bool {
	code, body, _, err := do(r.ctx, c, http.MethodGet, d.url+"/v1/profiles/"+hk.key, nil)
	ok := err == nil && code == http.StatusOK
	if ok && !bytes.Equal(body, hk.payload) {
		r.fail("GET %s on node %d returned other bytes than set-up stored", hk.key, g)
	}
	r.op(ok)
	return ok
}

// checkEveryNode reads every key from every node, including the one no
// client connection reaches, and checks the bytes against set-up.
func checkEveryNode(r *run, c *http.Client, ds []*daemon, keys []hotKey) {
	for i, d := range ds {
		for _, k := range keys {
			code, body, _, err := do(r.ctx, c, http.MethodGet, d.url+"/v1/profiles/"+k.key, nil)
			if err != nil || code != http.StatusOK || !bytes.Equal(body, k.payload) {
				r.fail("node %d: GET %s: status %d, %v, bytes equal %v", i, k.key, code, err, bytes.Equal(body, k.payload))
			}
		}
	}
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
