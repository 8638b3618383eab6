package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The fleet mirrors npserve's default deployment: the lite showcase trio
// built with BYOC CPU+APU (buildOpts, which zoo-deploy uses at the full
// preset too), deployed through the registry over a memory-only
// artifact cache, pools of 2, queues of 64, batching off, the flight recorder
// and a per-model SLO on; and nprouter's defaults in front of two workers.
var (
	buildOpts = runtime.BuildOptions{OptLevel: 3, UseNIR: true}
	serveOpts = serve.ModelOptions{Pool: 2, QueueDepth: 64, MaxBatch: 1, BatchWindow: 2 * time.Millisecond}
	sloOpts   = obs.SLO{ObjectiveQuantile: 0.99, ThresholdMs: 1000, Window: 5 * time.Minute}
)

const (
	ssdModel   = "mobilenet ssd (quant)"
	fleetSize  = 2
	clients    = 2
	mixSeeds   = 64
	mixLength  = 1024
	bodyInputs = 16
)

// mixWeights are the models' shares of the seed mix, chosen so that p50
// falls in the SSD band and p95 in the emotion band.
var mixWeights = []struct {
	model  string
	weight int
}{{"anti-spoofing", 25}, {ssdModel, 60}, {"emotion", 15}}

// refModel is a showcase model built apart from the fleet with the same
// options: the replies are checked against direct runs of its library.
type refModel struct {
	mod    *relay.Module
	lib    *runtime.Lib
	inName string
	simMs  float64
}

func buildRefs() (map[string]*refModel, error) {
	refs := map[string]*refModel{}
	for _, spec := range models.Showcase() {
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			return nil, err
		}
		lib, err := runtime.Build(mod, buildOpts)
		if err != nil {
			return nil, err
		}
		p, err := lib.Estimate()
		if err != nil {
			return nil, err
		}
		refs[spec.Name] = &refModel{mod: mod, lib: lib, inName: runtime.NewGraphModule(lib).InputNames()[0], simMs: p.Total().Ms()}
	}
	return refs, nil
}

// expect runs the reference library directly on in.
func (m *refModel) expect(model string, in *tensor.Tensor) (*expected, error) {
	gm := runtime.NewGraphModule(m.lib)
	gm.SetInput(m.inName, in)
	if err := gm.Run(); err != nil {
		return nil, err
	}
	e := &expected{model: model, head: headOf(model), simMs: m.simMs}
	for i := 0; i < gm.NumOutputs(); i++ {
		t, err := gm.OutputCopy(i)
		if err != nil {
			return nil, err
		}
		e.outputs = append(e.outputs, t)
	}
	return e, nil
}

// httpServer is one loopback HTTP server and the goroutine serving it.
type httpServer struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

type fleetWorker struct {
	key  string
	srv  *serve.Server
	libs []*runtime.Lib
	http *httpServer
}

// startWorker deploys the trio the way npserve does by default.
func startWorker(key string) (*fleetWorker, error) {
	srv := serve.NewServer()
	srv.SetWorkerKey(key)
	srv.ConfigureFlightRecorder(0, 0, serve.DefaultSlowThresholdMs)
	cache, err := registry.NewCache("")
	if err != nil {
		return nil, err
	}
	cache.EnableMetrics(srv.Metrics())
	srv.Mount("/debugz/cache", cache.Handler())
	reg := registry.New(srv)
	w := &fleetWorker{key: key, srv: srv}
	for _, spec := range models.Showcase() {
		mod, err := spec.Build(models.SizeLite)
		if err != nil {
			return nil, err
		}
		k, err := registry.Key(mod, buildOpts, nil)
		if err != nil {
			return nil, err
		}
		lib, _, err := cache.GetOrBuild(k, nil, func() (*runtime.Lib, error) { return runtime.Build(mod, buildOpts) })
		if err != nil {
			return nil, err
		}
		if err := reg.Deploy(spec.Name, "v1", lib, serveOpts, k); err != nil {
			return nil, err
		}
		srv.SetSLO(registry.EndpointName(spec.Name, "v1"), sloOpts)
		w.libs = append(w.libs, lib)
	}
	if w.http, err = listen(srv.Handler()); err != nil {
		srv.Drain()
		return nil, err
	}
	return w, nil
}

func (w *fleetWorker) stop() {
	w.http.stop()
	w.srv.Drain()
}

// rig is the fleet under test plus the reference libraries.
type rig struct {
	refs    map[string]*refModel
	workers []*fleetWorker
	router  *fleet.Router
	rhttp   *httpServer
	stopHC  context.CancelFunc
	hcDone  chan struct{}
	client  *http.Client
}

func startRig() (*rig, error) {
	refs, err := buildRefs()
	if err != nil {
		return nil, err
	}
	g := &rig{refs: refs}
	for i := 0; i < fleetSize; i++ {
		w, err := startWorker(fmt.Sprintf("d800-%d", i))
		if err != nil {
			g.stop()
			return nil, err
		}
		g.workers = append(g.workers, w)
	}
	g.router = fleet.NewRouter(fleet.Options{
		HealthInterval:   2 * time.Second,
		HeartbeatTimeout: 10 * time.Second,
		Client:           &http.Client{Timeout: 30 * time.Second},
	})
	ctx, cancel := context.WithCancel(context.Background())
	g.stopHC, g.hcDone = cancel, make(chan struct{})
	go func() {
		defer close(g.hcDone)
		g.router.HealthCheckLoop(ctx)
	}()
	if g.rhttp, err = listen(g.router.Handler()); err != nil {
		g.stop()
		return nil, err
	}
	for _, w := range g.workers {
		if err := g.router.Register(w.key, w.http.url); err != nil {
			g.stop()
			return nil, err
		}
	}
	for _, wi := range g.router.Workers() {
		if !wi.Healthy {
			g.stop()
			return nil, fmt.Errorf("fleet: worker %s is not healthy after registering", wi.Key)
		}
	}
	g.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	return g, nil
}

func (g *rig) stop() {
	if g.stopHC != nil {
		g.stopHC()
		<-g.hcDone
	}
	if g.rhttp != nil {
		g.rhttp.stop()
	}
	for _, w := range g.workers {
		w.stop()
	}
	if g.client != nil {
		g.client.CloseIdleConnections()
	}
}

// setupRig starts the fleet three times and keeps the last.
func setupRig(r *run) (*rig, error) {
	g, err := setupMedian(r, 7, startRig, (*rig).stop)
	if err != nil {
		return nil, err
	}
	mb, err := artifactMB(g.workers[0].libs...)
	if err != nil {
		g.stop()
		return nil, err
	}
	r.setE2E("artifact_mb", "MB", mb)
	return g, nil
}

// request is one pre-made request body and the reply it must get.
type request struct {
	body []byte
	want *expected
}

// reply is what a client kept of one completed request.
type reply struct {
	req    int
	status int
	body   []byte
	worker string
	t0, t1 time.Time // send, last byte of the reply read
	err    error
}

// post sends one body and reads the full reply; the latency runs from send
// to the last byte read.
func (g *rig) post(url string, body []byte) (status int, out []byte, worker string, err error) {
	resp, err := g.client.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	out, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, resp.Header.Get(fleet.WorkerHeader), err
}

// drive runs closed-loop clients against the router until the deadline,
// each starting at its own offset into reqs.
func (g *rig) drive(r *run, reqs []request, end time.Time) ([]reply, [2]time.Time) {
	var (
		mu      sync.Mutex
		replies []reply
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tk *rtrack
			if r.rec != nil {
				tk = r.rec.track(fmt.Sprintf("client-%d", c))
			}
			var mine []reply
			for i := c * len(reqs) / clients; time.Now().Before(end); i++ {
				k := i % len(reqs)
				var sp openSpan
				if tk != nil {
					sp = tk.begin("request", c<<32|len(mine))
				}
				t0 := time.Now()
				status, body, worker, err := g.post(g.rhttp.url, reqs[k].body)
				t1 := time.Now()
				if tk != nil {
					tk.end(sp, obs.A("model", reqs[k].want.model), obs.A("worker", worker))
				}
				mine = append(mine, reply{req: k, status: status, body: body, worker: worker, t0: t0, t1: t1, err: err})
			}
			mu.Lock()
			replies = append(replies, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return replies, [2]time.Time{start, time.Now()}
}

// account checks every reply and records the end-to-end metrics, and when
// traced, the traffic's per-layer metrics.
func (g *rig) account(r *run, reqs []request, replies []reply, phase [2]time.Time, retried0, failed0 float64) error {
	var lat, queue []float64
	var simMs float64
	perWorker := map[string]int{}
	for _, rp := range replies {
		r.attempted++
		err := rp.err
		if err == nil && rp.status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %.200s", rp.status, rp.body)
		}
		var resp serve.InferResponse
		if err == nil {
			resp, err = checkReply(rp.body, reqs[rp.req].want)
		}
		if err != nil {
			r.opFailed(err)
			continue
		}
		lat = append(lat, r.clock.netMs(rp.t0, rp.t1))
		queue = append(queue, resp.QueueMs)
		simMs += resp.SimMs
		perWorker[rp.worker]++
	}
	if len(lat) == 0 {
		return errors.New("fleet: no request completed")
	}
	r.summarize(lat, r.clock.netMs(phase[0], phase[1])/1e3)
	r.setE2E("sim_ms", "sim-ms", simMs/float64(len(lat)))
	if r.rec != nil {
		r.setFleetTraffic(queue, perWorker, len(lat), g, retried0, failed0)
	}
	return nil
}

// setFleetTraffic records the per-layer metrics only traffic can give.
func (r *run) setFleetTraffic(queue []float64, perWorker map[string]int, n int, g *rig, retried0, failed0 float64) {
	r.setLayer("serve.queue_wait_ms", "ms", median(queue))
	most := 0
	for _, c := range perWorker {
		most = max(most, c)
	}
	r.setLayer("fleet.worker_share_max", "ratio", float64(most)/float64(n))
	retried, failed := g.routerCounters()
	r.setLayer("fleet.retried", "count", retried-retried0)
	r.setLayer("fleet.failed", "count", failed-failed0)
}

func (g *rig) routerCounters() (retried, failed float64) {
	m := g.router.Metrics()
	return m.Counter("np_fleet_retried_requests_total", "", obs.L()).Value(),
		m.Counter("np_fleet_failed_requests_total", "", obs.L()).Value()
}

// mixRequests makes the seed-form mix from the run's seed: the models in
// exactly the mix's shares, in an order shuffled by the seed, each with an
// input seed drawn from mixSeeds values. The shares are exact because an
// emotion request costs about four SSD requests: drawn one by one, the
// emotion share alone moved throughput by several percent between seeds.
func (g *rig) mixRequests(seed uint64) ([]request, error) {
	rng := tensor.NewRNG(seed)
	total := 0
	for _, w := range mixWeights {
		total += w.weight
	}
	names := make([]string, 0, mixLength)
	for i, w := range mixWeights {
		n := mixLength * w.weight / total
		if i == len(mixWeights)-1 {
			n = mixLength - len(names)
		}
		for k := 0; k < n; k++ {
			names = append(names, w.model)
		}
	}
	for i := len(names) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		names[i], names[j] = names[j], names[i]
	}
	cache := map[string]*expected{}
	reqs := make([]request, mixLength)
	for i, model := range names {
		s := uint64(1 + rng.Intn(mixSeeds))
		key := fmt.Sprintf("%s/%d", model, s)
		want, ok := cache[key]
		if !ok {
			ref := g.refs[model]
			var err error
			if want, err = ref.expect(model, models.RandomInput(ref.mod, s)); err != nil {
				return nil, err
			}
			cache[key] = want
		}
		body, err := json.Marshal(serve.InferRequest{Model: model, Seed: s})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, want: want}
	}
	return reqs, nil
}

// tensorRequest makes the tensor-form body for one input: its values
// spelled out as JSON numbers, which the worker quantizes back.
func (g *rig) tensorRequest(model string, in *tensor.Tensor) (request, error) {
	ref := g.refs[model]
	want, err := ref.expect(model, in)
	if err != nil {
		return request{}, err
	}
	vals := make([]float64, in.Elems())
	for i := range vals {
		vals[i] = in.GetF(i)
	}
	body, err := json.Marshal(serve.InferRequest{Model: model, Inputs: map[string][]float64{ref.inName: vals}})
	return request{body: body, want: want}, err
}

func (g *rig) tensorRequests(seed uint64) ([]request, error) {
	rng := tensor.NewRNG(seed)
	reqs := make([]request, bodyInputs)
	for i := range reqs {
		req, err := g.tensorRequest(ssdModel, models.RandomInput(g.refs[ssdModel].mod, rng.Uint64()))
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	return reqs, nil
}

func runSeedMix(r *run) error {
	g, err := setupRig(r)
	if err != nil {
		return err
	}
	defer g.stop()
	reqs, err := g.mixRequests(r.cfg.seed)
	if err != nil {
		return err
	}
	return g.timed(r, reqs)
}

func runTensorBody(r *run) error {
	g, err := setupRig(r)
	if err != nil {
		return err
	}
	defer g.stop()
	reqs, err := g.tensorRequests(r.cfg.seed)
	if err != nil {
		return err
	}
	return g.timed(r, reqs)
}

// timed drives the requests for the run's length, checks the replies, and
// when traced keeps the rig up for the layer sweep.
func (g *rig) timed(r *run, reqs []request) error {
	retried0, failed0 := g.routerCounters()
	replies, phase := g.drive(r, reqs, r.deadline())
	if err := g.account(r, reqs, replies, phase, retried0, failed0); err != nil {
		return err
	}
	r.setE2E("retained_heap_mb", "MB", heapMB())
	if r.rec != nil {
		return fleetSweep(r, g, false)
	}
	return nil
}
