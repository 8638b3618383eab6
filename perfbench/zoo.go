package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/models"
	"repro/internal/registry"
	"repro/internal/relay"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// zooOp is one model deploy: frontend import, artifact key, cache load (or
// build and store), registry deploy, and plan lowering so the worker can
// serve without a lowering stall on its first request.
type zooOp struct {
	name   string
	lib    *runtime.Lib
	t0, t1 time.Time
	err    error
}

// zooLayers is the per-layer time of one traced pass, summed over the zoo.
type zooLayers struct {
	importMs, keyMs, buildMs, storeMs, loadMs, deployMs float64
	planMs, verifyMs, safetyMs                          float64
}

// zooPass deploys the whole zoo onto a fresh worker whose artifact cache
// reads and writes dir. The cache's in-memory layer is always fresh: a cold
// pass starts on an empty dir, a warm one on a dir a previous pass filled.
func zooPass(dir string, cold bool, rec *rtrack, op0 int) ([]zooOp, registry.CacheStats, *zooLayers, error) {
	cache, err := registry.NewCache(dir)
	if err != nil {
		return nil, registry.CacheStats{}, nil, err
	}
	srv := serve.NewServer()
	defer srv.Drain()
	reg := registry.New(srv)
	lay := &zooLayers{}
	names := models.Names()
	ops := make([]zooOp, len(names))
	for i, name := range names {
		ops[i] = deployOne(name, cache, reg, cold, rec, lay, op0+i)
	}
	return ops, cache.Stats(), lay, nil
}

func deployOne(name string, cache *registry.Cache, reg *registry.Registry, cold bool, tk *rtrack, lay *zooLayers, op int) zooOp {
	out := zooOp{name: name}
	var root openSpan
	if tk != nil {
		root = tk.begin("deploy "+name, op)
	}
	st := stepper{tk: tk, op: op}
	out.t0 = time.Now()
	var getMs, buildMs float64
	out.lib, out.err = deploySteps(name, cache, reg, st, lay, &getMs, &buildMs)
	out.t1 = time.Now()
	if tk != nil {
		tk.end(root)
		if cold {
			lay.buildMs += buildMs
			// GetOrBuild's time beyond the build is the artifact export.
			lay.storeMs += getMs - buildMs
		} else {
			lay.loadMs += getMs
		}
		if out.err == nil {
			out.err = timePlanParts(tk, out.lib, lay, op)
		}
	}
	if out.err != nil {
		out.err = fmt.Errorf("deploy %s: %w", name, out.err)
	}
	return out
}

// stepper times one call into a layer as a span of the operation, adding it
// to a layer total; untraced, it only makes the call.
type stepper struct {
	tk *rtrack
	op int
}

func (s stepper) do(span string, acc *float64, f func() error) error {
	if s.tk == nil {
		return f()
	}
	sp := s.tk.begin(span, s.op)
	t0 := time.Now()
	err := f()
	*acc += sinceMs(t0)
	s.tk.end(sp)
	return err
}

func deploySteps(name string, cache *registry.Cache, reg *registry.Registry, st stepper, lay *zooLayers, getMs, buildMs *float64) (*runtime.Lib, error) {
	spec, err := models.Get(name)
	if err != nil {
		return nil, err
	}
	var mod *relay.Module
	if err := st.do("frontend.import", &lay.importMs, func() (err error) {
		mod, err = spec.Build(models.SizeFull)
		return err
	}); err != nil {
		return nil, err
	}
	var key string
	if err := st.do("registry.Key", &lay.keyMs, func() (err error) {
		key, err = registry.Key(mod, buildOpts, nil)
		return err
	}); err != nil {
		return nil, err
	}
	var lib *runtime.Lib
	if err := st.do("registry.Cache.GetOrBuild", getMs, func() (err error) {
		lib, _, err = cache.GetOrBuild(key, nil, func() (built *runtime.Lib, err error) {
			err = st.do("runtime.Build", buildMs, func() (err error) {
				built, err = runtime.Build(mod, buildOpts)
				return err
			})
			return built, err
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := st.do("registry.Deploy", &lay.deployMs, func() error {
		return reg.Deploy(name, "v1", lib, serveOpts, key)
	}); err != nil {
		return nil, err
	}
	var lowerMs float64
	return lib, st.do("runtime.Lib.Plan", &lowerMs, func() error {
		_, err := lib.Plan()
		return err
	})
}

// timePlanParts times plan lowering and its two checkers apart on a built
// library (traced passes only; the deploy itself lowers once, through
// Lib.Plan).
func timePlanParts(rec *rtrack, lib *runtime.Lib, lay *zooLayers, op int) error {
	sp := rec.begin("runtime.BuildPlan", op)
	t0 := time.Now()
	plan, err := runtime.BuildPlan(lib)
	lay.planMs += sinceMs(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("runtime.VerifyPlan", op)
	t0 = time.Now()
	err = runtime.VerifyPlan(plan).Err()
	lay.verifyMs += sinceMs(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("analysis.PlanSafety", op)
	t0 = time.Now()
	err = analysis.PlanSafety(plan.View()).Err()
	lay.safetyMs += sinceMs(t0)
	rec.end(sp)
	return err
}

// buildZooRefs builds every zoo model from source, apart from the cache and
// registry, as the reference deployed libraries are checked against.
func buildZooRefs() (map[string]*reference, error) {
	refs := map[string]*reference{}
	for _, name := range models.Names() {
		spec, err := models.Get(name)
		if err != nil {
			return nil, err
		}
		mod, err := spec.Build(models.SizeFull)
		if err != nil {
			return nil, err
		}
		lib, err := runtime.Build(mod, buildOpts)
		if err != nil {
			return nil, err
		}
		ref, err := newReference(lib)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		refs[name] = ref
	}
	return refs, nil
}

// zooRun is the zoo workload's timed phase: whole rounds until the
// deadline. A round is a first worker's start, a cold pass on an empty
// artifact store, and then a sibling worker's start, a warm pass on the
// store the cold pass filled, with a fresh in-memory layer.
func zooRun(r *run, refs map[string]*reference) (lastStore string, err error) {
	var (
		rounds   []float64
		perModel = map[string][]float64{} // "cold/<model>" and "warm/<model>"
		bytes    uint64
	)
	var tk *rtrack
	if r.rec != nil {
		tk = r.rec.track("zoo")
	}
	end := r.deadline()
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		if lastStore != "" {
			os.RemoveAll(lastStore)
		}
		lastStore = filepath.Join(r.cfg.workDir, fmt.Sprintf("store-%d", round))
		t0 := time.Now()
		for _, cold := range []bool{true, false} {
			kind := "warm"
			if cold {
				kind = "cold"
			}
			ops, st, _, err := zooPass(lastStore, cold, tk, r.attempted)
			if err != nil {
				return lastStore, err
			}
			if err := checkPass(cold, st, len(ops)); err != nil {
				r.problem("round %d %s pass: %v", round, kind, err)
			}
			if cold {
				bytes = st.BytesWritten
			}
			for _, op := range ops {
				r.attempted++
				err := op.err
				if err == nil {
					err = checkDeployed(op.lib, refs[op.name])
				}
				if err != nil {
					r.opFailed(fmt.Errorf("round %d %s pass: %s: %w", round, kind, op.name, err))
					continue
				}
				perModel[kind+"/"+op.name] = append(perModel[kind+"/"+op.name], r.clock.netMs(op.t0, op.t1))
			}
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	r.setE2E("retained_heap_mb", "MB", heapMB())
	if len(perModel) == 0 {
		return lastStore, fmt.Errorf("zoo: no model deployed")
	}
	// The zoo's deploys differ up to fortyfold in time, so a quantile of the
	// pooled deploys sits on the edge between two models' clusters and jumps
	// with the round count. Each (model, cold or warm) median is steady; the
	// latency quantiles and the throughput are taken over those.
	meds := make([]float64, 0, len(perModel))
	sum := map[string]float64{}
	total := 0.0
	for k, ms := range perModel {
		m := median(ms)
		meds = append(meds, m)
		sum[k[:4]] += m
		total += m
	}
	sort.Float64s(meds)
	r.setE2E("latency_p50_ms", "ms", percentile(meds, 0.50))
	r.setE2E("latency_p95_ms", "ms", percentile(meds, 0.95))
	r.setE2E("throughput_per_s", "1/s", float64(len(meds))/(total/1e3))
	// Every deployed library's estimate equals its reference's (checked
	// above), so the zoo's simulated time is the references' sum.
	simMs := 0.0
	for _, ref := range refs {
		simMs += ref.simMs
	}
	r.setE2E("sim_ms", "sim-ms", simMs)
	r.setE2E("artifact_mb", "MB", float64(bytes)/1e6)
	fmt.Printf("zoo: %d rounds, median round %.3f s; sum of per-model medians: cold %.3f s, warm %.3f s\n",
		len(rounds), median(rounds), sum["cold"]/1e3, sum["warm"]/1e3)
	return lastStore, nil
}

func runZoo(r *run) error {
	refs, err := setupMedian(r, 3, buildZooRefs, func(map[string]*reference) {})
	if err != nil {
		return err
	}
	store, err := zooRun(r, refs)
	if err != nil {
		return err
	}
	return checkZooServes(r, store, refs)
}

// checkZooServes deploys the showcase models once more from the last
// round's store and checks that one Submit on each equals a direct run of
// its source build on the same input.
func checkZooServes(r *run, store string, refs map[string]*reference) error {
	cache, err := registry.NewCache(store)
	if err != nil {
		return err
	}
	srv := serve.NewServer()
	defer srv.Drain()
	reg := registry.New(srv)
	for _, spec := range models.Showcase() {
		op := deployOne(spec.Name, cache, reg, false, nil, &zooLayers{}, 0)
		if op.err != nil {
			r.problem("serving check: %v", op.err)
			continue
		}
		if err := checkSubmit(srv, spec.Name, refs[spec.Name], r.cfg.seed); err != nil {
			r.problem("serving check: %s: %v", spec.Name, err)
		}
	}
	return nil
}

// checkSubmit compares one Submit with a direct run of the reference.
func checkSubmit(srv *serve.Server, model string, ref *reference, seed uint64) error {
	gm := runtime.NewGraphModule(ref.lib)
	in := models.RandomInput(ref.lib.Module, seed)
	gm.SetInput(gm.InputNames()[0], in)
	if err := gm.Run(); err != nil {
		return err
	}
	res, err := srv.Submit(context.Background(), model, map[string]*tensor.Tensor{gm.InputNames()[0]: in})
	if err != nil {
		return err
	}
	if len(res.Outputs) != gm.NumOutputs() {
		return fmt.Errorf("%d outputs, want %d", len(res.Outputs), gm.NumOutputs())
	}
	for i, got := range res.Outputs {
		want := gm.MustOutput(i)
		if !got.Shape.Equal(want.Shape) {
			return fmt.Errorf("output %d shape %v, want %v", i, got.Shape, want.Shape)
		}
		for j := 0; j < want.Elems(); j++ {
			if got.GetF(j) != want.GetF(j) {
				return fmt.Errorf("output %d[%d] = %v, want %v", i, j, got.GetF(j), want.GetF(j))
			}
		}
	}
	if ms := res.SimTime.Ms(); !ref.isTotal(ms) {
		return fmt.Errorf("simulated time %v ms, want the estimate %v ms", ms, ref.simMs)
	}
	return nil
}
