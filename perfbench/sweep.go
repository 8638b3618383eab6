package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/internal/app"
	"repro/internal/models"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// layerMetrics are the per-layer metrics a traced run prints, in
// BENCHMARK.json order.
var layerMetrics = []string{
	"app.detect_ms", "app.spoof_ms", "app.emotion_ms", "app.faces_per_frame", "app.live_faces_per_frame",
	"runtime.run_ms.ssd", "runtime.run_ms.antispoof", "runtime.run_ms.emotion", "runtime.allocs_per_run",
	"serve.submit_ms", "serve.queue_wait_ms", "serve.http_ms", "serve.http_tensor_ms",
	"serve.decode_ms", "serve.encode_ms", "serve.request_kb", "serve.response_kb",
	"fleet.http_ms", "fleet.http_tensor_ms", "fleet.worker_share_max", "fleet.retried", "fleet.failed",
	"frontend.import_ms", "registry.key_ms", "runtime.build_ms", "registry.store_ms", "registry.load_ms",
	"registry.deploy_ms", "runtime.plan_ms", "runtime.verify_plan_ms", "analysis.plan_safety_ms",
	"registry.builds", "registry.hits",
}

const (
	// ladderSeed fixes the one input the ladder carries up the layers.
	ladderSeed   = 7
	ladderRounds = 40
	// burstFrames and burstSeconds size the traffic a traced run adds for
	// layers its own workload does not reach.
	burstFrames  = 40
	burstSeconds = 3
)

// traceSweep measures, after the workload's own traced phase, every layer
// the workload did not reach, so each traced run prints every per-layer
// metric: the showcase stages, the layer ladder with the seed-mix traffic,
// and one cold and one warm zoo pass.
func traceSweep(r *run) error {
	if _, ok := r.layers["app.detect_ms"]; !ok {
		if err := showcaseBurst(r); err != nil {
			return err
		}
	}
	if _, ok := r.layers["serve.submit_ms"]; !ok {
		g, err := startRig()
		if err != nil {
			return err
		}
		err = fleetSweep(r, g, true)
		g.stop()
		if err != nil {
			return err
		}
	}
	return zooSweep(r)
}

// sub is a run for a sweep's own traffic: it shares the traced run's
// recorder and per-layer metrics, and folds its accounting back in.
func (r *run) sub() *run {
	return &run{cfg: r.cfg, e2e: map[string]metric{}, layers: r.layers, rec: r.rec, clock: r.clock}
}

func (r *run) fold(s *run) {
	r.attempted += s.attempted
	r.failed += s.failed
	r.opErrors = append(r.opErrors, s.opErrors...)
	r.problems = append(r.problems, s.problems...)
}

func showcaseBurst(r *run) error {
	sc, err := app.New(app.DefaultConfig())
	if err != nil {
		return err
	}
	est, err := showcaseEstimates(sc)
	if err != nil {
		return err
	}
	var stage [3]float64
	faces, live := 0, 0
	for i := 0; i < burstFrames; i++ {
		f, err := sceneFrame(r.cfg.seed, i)
		if err != nil {
			return err
		}
		r.attempted++
		res, st, err := tracedFrame(r.rec, sc, f, r.attempted)
		if err == nil {
			err = checkFrame(res, est)
		}
		if err != nil {
			r.opFailed(err)
			continue
		}
		for k := range stage {
			stage[k] += st[k]
		}
		faces += len(res.Faces)
		live += liveFaces(res)
	}
	n := float64(burstFrames)
	r.setLayer("app.detect_ms", "ms", stage[0]/n)
	r.setLayer("app.spoof_ms", "ms", stage[1]/n)
	r.setLayer("app.emotion_ms", "ms", stage[2]/n)
	r.setLayer("app.faces_per_frame", "count", float64(faces)/n)
	r.setLayer("app.live_faces_per_frame", "count", float64(live)/n)
	return nil
}

// rung is one step of the ladder: the same lite SSD input, one layer higher.
type rung struct {
	name  string
	base  int    // index of the rung this one is measured against; -1 for none
	layer string // what the difference to the base rung is the cost of
	call  func() error
	ms    []float64
}

// fleetSweep takes the ladder input up the layers, times the wire codec,
// counts executor allocations, and (burst) drives seed-mix traffic for the
// traffic-only metrics.
func fleetSweep(r *run, g *rig, burst bool) error {
	if burst {
		s := r.sub()
		reqs, err := g.mixRequests(r.cfg.seed)
		if err != nil {
			return err
		}
		retried0, failed0 := g.routerCounters()
		replies, phase := g.drive(s, reqs, time.Now().Add(burstSeconds*time.Second))
		if err := g.account(s, reqs, replies, phase, retried0, failed0); err != nil {
			return err
		}
		r.fold(s)
	}

	ref := g.refs[ssdModel]
	in := models.RandomInput(ref.mod, ladderSeed)
	want, err := ref.expect(ssdModel, in)
	if err != nil {
		return err
	}
	seedBody, err := json.Marshal(serve.InferRequest{Model: ssdModel, Seed: ladderSeed})
	if err != nil {
		return err
	}
	tensorReq, err := g.tensorRequest(ssdModel, in)
	if err != nil {
		return err
	}
	worker, router := g.workers[0].http.url, g.rhttp.url
	srv := g.workers[0].srv
	var lastTensorReply []byte
	var lastResult *serve.Result

	direct := func(model string, input *tensor.Tensor) func() error {
		m := g.refs[model]
		gm := runtime.NewGraphModule(m.lib)
		gm.SetInput(m.inName, input)
		return gm.Run
	}
	runSSD := direct(ssdModel, in)
	runSpoof := direct("anti-spoofing", models.RandomInput(g.refs["anti-spoofing"].mod, ladderSeed))
	runEmo := direct("emotion", models.RandomInput(g.refs["emotion"].mod, ladderSeed))
	httpCall := func(url string, body []byte, keep bool) func() error {
		return func() error {
			status, out, _, err := g.post(url, body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %.200s", status, out)
			}
			if err == nil {
				_, err = checkReply(out, want)
			}
			if keep {
				lastTensorReply = out
			}
			return err
		}
	}
	rungs := []*rung{
		{name: "GraphModule.Run", base: -1, call: runSSD},
		{name: "Server.Submit", base: 0, layer: "serve: admission, queue, pool, device locks, output copy", call: func() error {
			res, err := srv.Submit(context.Background(), ssdModel, map[string]*tensor.Tensor{ref.inName: in})
			if err == nil {
				lastResult = res
				err = sameOutputs(res.Outputs, want.outputs)
			}
			return err
		}},
		{name: "worker /v1/infer, seed", base: 1, layer: "HTTP handler, input synthesis, reply encode", call: httpCall(worker, seedBody, false)},
		{name: "router /v1/infer, seed", base: 2, layer: "router hop", call: httpCall(router, seedBody, false)},
		{name: "worker /v1/infer, tensor", base: 1, layer: "HTTP handler, body decode and quantize, reply encode", call: httpCall(worker, tensorReq.body, true)},
		{name: "router /v1/infer, tensor", base: 4, layer: "router hop: body read, decode, re-send", call: httpCall(router, tensorReq.body, false)},
		{name: "GraphModule.Run anti-spoofing", base: -1, call: runSpoof},
		{name: "GraphModule.Run emotion", base: -1, call: runEmo},
	}
	tk := r.rec.track("ladder")
	for i := 0; i < ladderRounds; i++ {
		for _, rg := range rungs {
			r.attempted++
			sp := tk.begin(rg.name, r.attempted)
			t0 := time.Now()
			err := rg.call()
			ms := sinceMs(t0)
			tk.end(sp)
			if err != nil {
				r.opFailed(fmt.Errorf("ladder %s: %w", rg.name, err))
				continue
			}
			rg.ms = append(rg.ms, ms)
		}
	}
	med := make([]float64, len(rungs))
	for i, rg := range rungs {
		if len(rg.ms) == 0 {
			return fmt.Errorf("ladder: rung %q never succeeded", rg.name)
		}
		med[i] = median(rg.ms)
	}
	fmt.Printf("layer ladder: %s, seed %d, median of %d interleaved rounds\n", ssdModel, ladderSeed, ladderRounds)
	fmt.Printf("  %-30s %9s %9s  %s\n", "rung", "ms", "minus", "cost of")
	for i, rg := range rungs[:6] {
		if rg.base < 0 {
			fmt.Printf("  %-30s %9.3f\n", rg.name, med[i])
			continue
		}
		fmt.Printf("  %-30s %9.3f %+9.3f  %s (vs %s)\n", rg.name, med[i], med[i]-med[rg.base], rg.layer, rungs[rg.base].name)
	}
	r.setLayer("runtime.run_ms.ssd", "ms", med[0])
	r.setLayer("serve.submit_ms", "ms", med[1])
	r.setLayer("serve.http_ms", "ms", med[2])
	r.setLayer("fleet.http_ms", "ms", med[3])
	r.setLayer("serve.http_tensor_ms", "ms", med[4])
	r.setLayer("fleet.http_tensor_ms", "ms", med[5])
	r.setLayer("runtime.run_ms.antispoof", "ms", med[6])
	r.setLayer("runtime.run_ms.emotion", "ms", med[7])

	if err := codecTimes(r, tensorReq.body, lastTensorReply, lastResult); err != nil {
		return err
	}
	r.setLayer("runtime.allocs_per_run", "count", allocsPerRun(runSSD))
	return nil
}

// sameOutputs compares detached outputs with the expected ones.
func sameOutputs(got, want []*tensor.Tensor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Shape.Equal(want[i].Shape) {
			return fmt.Errorf("output %d shape %v, want %v", i, got[i].Shape, want[i].Shape)
		}
		for j := 0; j < want[i].Elems(); j++ {
			if got[i].GetF(j) != want[i].GetF(j) {
				return fmt.Errorf("output %d[%d] = %v, want %v", i, j, got[i].GetF(j), want[i].GetF(j))
			}
		}
	}
	return nil
}

// codecTimes times the /v1/infer wire codec apart: decoding the tensor body
// into serve.InferRequest, and encoding the reply's InferResponse.
func codecTimes(r *run, body, replyBody []byte, res *serve.Result) error {
	if replyBody == nil || res == nil {
		return fmt.Errorf("ladder: no tensor reply to time the codec on")
	}
	resp := serve.InferResponse{Model: ssdModel, Version: res.Version, BatchSize: res.BatchSize, SimMs: res.SimTime.Ms()}
	for _, t := range res.Outputs {
		tj := serve.TensorJSON{Shape: []int(t.Shape.Clone()), DType: t.DType.String(), Data: make([]float64, t.Elems())}
		for i := range tj.Data {
			tj.Data[i] = t.GetF(i)
		}
		resp.Outputs = append(resp.Outputs, tj)
	}
	var dec, enc []float64
	for i := 0; i < ladderRounds; i++ {
		var req serve.InferRequest
		t0 := time.Now()
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		dec = append(dec, sinceMs(t0))
		t0 = time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return err
		}
		enc = append(enc, sinceMs(t0))
	}
	r.setLayer("serve.decode_ms", "ms", median(dec))
	r.setLayer("serve.encode_ms", "ms", median(enc))
	r.setLayer("serve.request_kb", "kB", float64(len(body))/1e3)
	r.setLayer("serve.response_kb", "kB", float64(len(replyBody))/1e3)
	return nil
}

// allocsPerRun counts heap allocations per Run, taking the least of three
// batches so a background goroutine's allocations do not count.
func allocsPerRun(run func() error) float64 {
	const batch = 10
	best := -1.0
	for k := 0; k < 3; k++ {
		var a, b goruntime.MemStats
		goruntime.ReadMemStats(&a)
		for i := 0; i < batch; i++ {
			_ = run() // the ladder has checked this run's output
		}
		goruntime.ReadMemStats(&b)
		if n := float64(b.Mallocs-a.Mallocs) / batch; best < 0 || n < best {
			best = n
		}
	}
	return best
}

// zooSweep runs one traced cold pass and one traced warm pass of the zoo.
func zooSweep(r *run) error {
	tk := r.rec.track("zoo-sweep")
	dir := filepath.Join(r.cfg.workDir, "sweep-store")
	cold, coldSt, coldLay, err := zooPass(dir, true, tk, r.attempted)
	if err != nil {
		return err
	}
	warm, warmSt, warmLay, err := zooPass(dir, false, tk, r.attempted+len(cold))
	if err != nil {
		return err
	}
	if err := checkPass(true, coldSt, len(cold)); err != nil {
		r.problem("sweep cold pass: %v", err)
	}
	if err := checkPass(false, warmSt, len(warm)); err != nil {
		r.problem("sweep warm pass: %v", err)
	}
	for i, op := range append(cold, warm...) {
		r.attempted++
		err := op.err
		if err == nil && i >= len(cold) {
			var ref *reference
			if ref, err = newReference(cold[i-len(cold)].lib); err == nil {
				err = checkDeployed(op.lib, ref)
			}
		}
		if err != nil {
			r.opFailed(err)
		}
	}
	r.setLayer("frontend.import_ms", "ms", (coldLay.importMs+warmLay.importMs)/2)
	r.setLayer("registry.key_ms", "ms", (coldLay.keyMs+warmLay.keyMs)/2)
	r.setLayer("runtime.build_ms", "ms", coldLay.buildMs)
	r.setLayer("registry.store_ms", "ms", coldLay.storeMs)
	r.setLayer("registry.load_ms", "ms", warmLay.loadMs)
	r.setLayer("registry.deploy_ms", "ms", (coldLay.deployMs+warmLay.deployMs)/2)
	r.setLayer("runtime.plan_ms", "ms", (coldLay.planMs+warmLay.planMs)/2)
	r.setLayer("runtime.verify_plan_ms", "ms", (coldLay.verifyMs+warmLay.verifyMs)/2)
	r.setLayer("analysis.plan_safety_ms", "ms", (coldLay.safetyMs+warmLay.safetyMs)/2)
	r.setLayer("registry.builds", "count", float64(coldSt.Builds))
	r.setLayer("registry.hits", "count", float64(warmSt.Hits))
	return nil
}
