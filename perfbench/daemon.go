package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/fleetd"
	"smokescreen/internal/scene"
	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// daemon is one in-process daemon: a store, the service mounted on a
// loopback listener, and its drain.
type daemon struct {
	url     string
	store   *store.Store
	handler http.Handler
	srv     *http.Server
	served  chan error
	drain   func(context.Context) error
}

// listen opens a loopback listener on an ephemeral port.
func listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func (d *daemon) serve(ln net.Listener) {
	d.srv = &http.Server{Handler: d.handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
}

// stop shuts the listener, drains the service and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if derr := d.drain(ctx); err == nil {
		err = derr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// startSingle starts a single-node daemon with the real generator over a
// fresh store in dir.
func startSingle(dir string, cacheBytes int64) (*daemon, error) {
	st, err := store.Open(dir, store.WithCacheBudget(cacheBytes))
	if err != nil {
		return nil, err
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	svc, err := server.New(server.Config{Store: st, Generator: &server.SystemGenerator{}, Workers: 1})
	if err != nil {
		ln.Close()
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), store: st, handler: svc.Handler(), drain: svc.Drain}
	d.serve(ln)
	return d, nil
}

// startFleet starts n fleet nodes with the given replica count, the real
// generator and a store per node under dir.
func startFleet(dir string, n, replicas int, cacheBytes int64) ([]*daemon, []*fleetd.Node, error) {
	lns := make([]net.Listener, n)
	names := make([]string, n)
	addrs := map[string]string{} // node name -> listener address
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := listen()
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		lns[i] = ln
		// Fixed names, so the ring places every key on the same nodes in
		// every run; names taken from ephemeral ports moved keys between
		// runs, and with them the share of forwarded hot reads (12–36%).
		// With these names the Zipf-weighted share of hot reads that land
		// on a node holding no replica is 22% on node 0 and 36% on node 1.
		names[i] = fmt.Sprintf("perfbench-%d:80", i)
		addrs[names[i]] = ln.Addr().String()
	}
	// Each node forwards over its own transport with the settings of
	// fleetd's default, dialing a node name's listener.
	var dialer net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	var ds []*daemon
	var nodes []*fleetd.Node
	for i := range lns {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)), store.WithCacheBudget(cacheBytes))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		node, err := fleetd.NewNode(fleetd.Config{
			Self: names[i], Nodes: names, Replicas: replicas,
			Store: st, Generator: &server.SystemGenerator{},
			Server: server.Config{Workers: 1},
			Transport: &http.Transport{
				DialContext:         dial,
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		d := &daemon{url: "http://" + addrs[names[i]], store: st, handler: node.Handler(), drain: node.Drain}
		ds = append(ds, d)
		nodes = append(nodes, node)
	}
	for i, d := range ds {
		d.serve(lns[i])
	}
	return ds, nodes, nil
}

func stopAll(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// scrapeAll sums the /metrics counters of the daemons.
func scrapeAll(ctx context.Context, c *http.Client, ds []*daemon) map[string]int64 {
	sum := map[string]int64{}
	for _, d := range ds {
		code, body, _, err := do(ctx, c, http.MethodGet, d.url+"/metrics", nil)
		if err != nil || code != http.StatusOK {
			continue
		}
		m, err := fleetd.ParseMetrics(strings.NewReader(string(body)))
		if err != nil {
			continue
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum
}

// probes are the layer entry points a traced run times directly, each
// call a span, after the measured phase: the store's Get and Put, the
// daemon and fleet handlers served to an in-memory recorder (no
// network), and the generator's key resolution.
type probes struct {
	store        *store.Store // holds key
	key          string
	putStore     *store.Store // scratch store for Put
	payload      []byte
	serverH      http.Handler // single-node handler that holds key
	fleetH       http.Handler // fleet node handler
	localKey     string       // key fleetH holds a replica of
	forwardKey   string       // key fleetH must forward
	genRequest   server.GenRequest
	roundTripURL string // GET through the network, for the HTTP round trip
}

const probeCalls = 400

func (p probes) run(r *run, c *http.Client) error {
	t := r.trace
	root, endRoot := t.span("probes", 0)
	defer endRoot()
	gen := &server.SystemGenerator{}
	for i := 0; i < probeCalls; i++ {
		_, end := t.span("store.Store.Get", root)
		_, err := p.store.Get(p.key)
		end()
		if err != nil {
			return fmt.Errorf("probe store.Get: %w", err)
		}
		_, end = t.span("store.Store.Put", root)
		err = p.putStore.Put(fmt.Sprintf("%064x", i+1), p.payload)
		end()
		if err != nil {
			return fmt.Errorf("probe store.Put: %w", err)
		}
		_, end = t.span("server.SystemGenerator.Key", root)
		_, _, err = gen.Key(p.genRequest)
		end()
		if err != nil {
			return fmt.Errorf("probe Key: %w", err)
		}
		if err := serveProbe(t, root, "server.Server.Handler", p.serverH, p.key); err != nil {
			return err
		}
		if p.fleetH != nil {
			if err := serveProbe(t, root, "fleetd.Node.Handler.local", p.fleetH, p.localKey); err != nil {
				return err
			}
			if err := serveProbe(t, root, "fleetd.Node.Handler.forward", p.fleetH, p.forwardKey); err != nil {
				return err
			}
		}
		_, end = t.span("http.roundtrip", root)
		code, _, _, err := do(r.ctx, c, http.MethodGet, p.roundTripURL, nil)
		end()
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("probe round trip: status %d: %v", code, err)
		}
	}
	r.setLayer("store.get_us", "us", t.spanMedian("store.Store.Get"))
	r.setLayer("store.put_ms", "ms", t.spanMedian("store.Store.Put")/1e3)
	r.setLayer("server.key_us", "us", t.spanMedian("server.SystemGenerator.Key"))
	r.setLayer("server.handler_us", "us", t.spanMedian("server.Server.Handler"))
	r.setLayer("fleetd.handler_local_us", "us", t.spanMedian("fleetd.Node.Handler.local"))
	r.setLayer("fleetd.handler_forward_us", "us", t.spanMedian("fleetd.Node.Handler.forward"))
	r.setLayer("http.roundtrip_us", "us", t.spanMedian("http.roundtrip"))
	return nil
}

func serveProbe(t *tracer, parent int64, name string, h http.Handler, key string) error {
	req := httptest.NewRequest(http.MethodGet, "/v1/profiles/"+key, nil)
	rec := httptest.NewRecorder()
	_, end := t.span(name, parent)
	h.ServeHTTP(rec, req)
	end()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("probe %s: status %d", name, rec.Code)
	}
	return nil
}

// singleNodeProbes starts a daemon outside the measured phase, stores the
// profile req asks for, and times the layers on it.
func singleNodeProbes(r *run, c *http.Client, req server.GenRequest) error {
	d, err := startSingle(filepath.Join(r.dir, "probe"), 64<<20)
	if err != nil {
		return err
	}
	defer d.stop()
	body, _ := json.Marshal(req)
	code, payload, hdr, err := do(r.ctx, c, http.MethodPost, d.url+"/v1/profiles", body)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("probe POST: status %d: %v", code, err)
	}
	putStore, err := store.Open(filepath.Join(r.dir, "probe-put"))
	if err != nil {
		return err
	}
	key := hdr.Get("X-Smokescreen-Key")
	return probes{
		store: d.store, key: key, putStore: putStore, payload: payload,
		serverH: d.handler, genRequest: req, roundTripURL: d.url + "/v1/profiles/" + key,
	}.run(r, c)
}

// corpora are the dataset configurations the workloads query or stream.
var corpora = map[string]func() scene.Config{
	"night-street": dataset.NightStreetConfig,
	"ua-detrac":    dataset.UADetracConfig,
	"highway":      dataset.HighwayConfig,
	"small":        dataset.SmallConfig,
}

// loadCorpora is a set-up's corpus load: it generates the named corpora
// afresh, the work a newly started daemon does on its first requests,
// and drops them. The daemons read the process's dataset cache, which
// only the first call fills, so without the fresh generation every
// set-up after the first would load nothing.
func loadCorpora(names ...string) error {
	for _, n := range names {
		if _, err := scene.Generate(corpora[n]()); err != nil {
			return err
		}
		if _, err := dataset.Load(n); err != nil {
			return err
		}
	}
	return nil
}

// settle empties the detector caches and collects the garbage of
// earlier set-ups and rounds. It runs before each timed set-up, so every
// set-up starts from the same state and no collection of earlier data
// falls inside its time. After the last set-up a workload collects the
// corpora it dropped with runtime.GC alone, which keeps them out of the
// peak resident set and keeps what the set-up detected.
func settle() {
	detect.ResetCaches()
	runtime.GC()
}
