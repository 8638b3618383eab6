package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/app"
	"repro/internal/models"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/video"
)

// The checks in this file compare the program's outputs with a computation
// made apart from the layers a workload exercises (a separately built
// library run directly, each module's static estimate, the video's planted
// ground truth) or with a property the method must have. None compares with
// a stored copy of earlier output.

// frameEstimates are the three showcase modules' static simulated costs.
type frameEstimates struct{ detect, spoof, emotion soc.Seconds }

// checkFrame checks one showcase frame: its simulated time is assembled from
// the module estimates (detect, plus one anti-spoofing run per face, plus
// one emotion run per live face), and only live faces carry an emotion.
func checkFrame(res *app.FrameResult, est frameEstimates) error {
	var spoof, emo soc.Seconds
	for _, fr := range res.Faces {
		spoof += est.spoof
		if fr.Real {
			emo += est.emotion
			if !validEmotion(fr.Emotion) {
				return fmt.Errorf("live face at %+v has emotion label %q", fr.Box, fr.Emotion)
			}
		} else if fr.Emotion != "" || fr.Confidence != 0 {
			return fmt.Errorf("printed face at %+v carries emotion %q (%.3f)", fr.Box, fr.Emotion, fr.Confidence)
		}
	}
	if got := res.Timing; got.Detect != est.detect || got.AntiSpoof != spoof || got.Emotion != emo {
		return fmt.Errorf("simulated stage times %v/%v/%v, want %v/%v/%v from the module estimates",
			got.Detect, got.AntiSpoof, got.Emotion, est.detect, spoof, emo)
	}
	return nil
}

func validEmotion(label string) bool {
	for _, l := range models.EmotionLabels {
		if l == label {
			return true
		}
	}
	return false
}

// truthTally matches face verdicts to the planted faces (IoU > 0.3).
type truthTally struct {
	matched int
	// liveAsPrinted and printedAsLive count the two ways a verdict can
	// disagree with the ground truth.
	liveAsPrinted, printedAsLive int
	live, printed                int // verdicts among matched faces
}

func (t *truthTally) add(res *app.FrameResult, truth []video.Actor) {
	for _, fr := range res.Faces {
		for _, a := range truth {
			if !a.IsFace || video.IoU(a.Box, fr.Box) <= 0.3 {
				continue
			}
			t.matched++
			if fr.Real {
				t.live++
			} else {
				t.printed++
			}
			switch {
			case fr.Real && a.Spoofed:
				t.printedAsLive++
			case !fr.Real && !a.Spoofed:
				t.liveAsPrinted++
			}
			break
		}
	}
}

// check requires both verdicts to occur and at most a quarter of the
// matched faces to disagree with the ground truth.
func (t truthTally) check() error {
	if t.live == 0 || t.printed == 0 {
		return fmt.Errorf("verdicts on %d matched faces: %d live, %d printed; want both", t.matched, t.live, t.printed)
	}
	if wrong := t.liveAsPrinted + t.printedAsLive; 4*wrong > t.matched {
		return fmt.Errorf("%d of %d matched faces disagree with the ground truth (more than a quarter)", wrong, t.matched)
	}
	return nil
}

// headKind names the output property a model's reply must have.
type headKind int

const (
	headSSD       headKind = iota // output 1: class scores in [0,1]
	headAntiSpoof                 // every output in [0,1]
	headEmotion                   // output 0: probabilities summing to 1
)

// expected is what one reply must equal: the outputs of a direct Run of a
// separately built library on the same input, and that library's estimate.
type expected struct {
	model   string
	head    headKind
	outputs []*tensor.Tensor
	simMs   float64
}

// checkReply decodes one /v1/infer reply and checks it value for value.
func checkReply(body []byte, want *expected) (serve.InferResponse, error) {
	var resp serve.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decoding reply: %w", err)
	}
	if resp.Model != want.model {
		return resp, fmt.Errorf("reply for model %q, want %q", resp.Model, want.model)
	}
	if resp.SimMs != want.simMs {
		return resp, fmt.Errorf("%s: sim_ms %v, want the estimate %v", want.model, resp.SimMs, want.simMs)
	}
	if len(resp.Outputs) != len(want.outputs) {
		return resp, fmt.Errorf("%s: %d outputs, want %d", want.model, len(resp.Outputs), len(want.outputs))
	}
	for i, o := range resp.Outputs {
		w := want.outputs[i]
		if !tensor.Shape(o.Shape).Equal(w.Shape) || len(o.Data) != w.Elems() {
			return resp, fmt.Errorf("%s: output %d has shape %v, want %v", want.model, i, o.Shape, w.Shape)
		}
		for j, v := range o.Data {
			if v != w.GetF(j) {
				return resp, fmt.Errorf("%s: output %d[%d] = %v, want %v", want.model, i, j, v, w.GetF(j))
			}
		}
	}
	return resp, checkHead(want.head, resp.Outputs)
}

// checkHead checks the property each model's output head must have.
func checkHead(kind headKind, outs []serve.TensorJSON) error {
	inUnit := func(i int) error {
		for j, v := range outs[i].Data {
			if !(v >= 0 && v <= 1) {
				return fmt.Errorf("score output %d[%d] = %v lies outside [0,1]", i, j, v)
			}
		}
		return nil
	}
	switch kind {
	case headSSD:
		if len(outs) < 2 {
			return fmt.Errorf("SSD reply has %d outputs, want boxes and scores", len(outs))
		}
		return inUnit(1)
	case headAntiSpoof:
		for i := range outs {
			if err := inUnit(i); err != nil {
				return err
			}
		}
	case headEmotion:
		sum := 0.0
		for _, v := range outs[0].Data {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("emotion probabilities sum to %.9f, want 1", sum)
		}
	}
	return nil
}

// headOf maps a showcase model to the property its reply must have.
func headOf(model string) headKind {
	switch model {
	case "anti-spoofing":
		return headAntiSpoof
	case "emotion":
		return headEmotion
	}
	return headSSD
}

// checkPass checks a zoo pass's cache counters: a cold pass builds every
// model and hits nothing; a warm pass loads every model and builds none.
func checkPass(cold bool, st registry.CacheStats, models int) error {
	want := registry.CacheStats{Builds: uint64(models), Misses: uint64(models)}
	if !cold {
		want = registry.CacheStats{Hits: uint64(models), DiskHits: uint64(models)}
	}
	if st.Builds != want.Builds || st.Misses != want.Misses || st.Hits != want.Hits || st.DiskHits != want.DiskHits {
		return fmt.Errorf("cache counters builds=%d misses=%d hits=%d disk_hits=%d, want builds=%d misses=%d hits=%d disk_hits=%d",
			st.Builds, st.Misses, st.Hits, st.DiskHits, want.Builds, want.Misses, want.Hits, want.DiskHits)
	}
	return nil
}

// planSummary renders what a deployed library must share with its source
// build: the lowered plan and each external region's device placement.
func planSummary(lib *runtime.Lib) string {
	var b strings.Builder
	if plan, err := lib.Plan(); err != nil {
		fmt.Fprintf(&b, "plan error: %v\n", err)
	} else {
		fmt.Fprintf(&b, "%s\n", plan)
	}
	regions := make([]string, 0, len(lib.External))
	for name := range lib.External {
		regions = append(regions, name)
	}
	sort.Strings(regions)
	for _, name := range regions {
		cm := lib.External[name]
		fmt.Fprintf(&b, "region %s devices=%v plan=%v\n", name, cm.Devices, cm.Plan)
	}
	return b.String()
}

// reference is a library built from source apart from the path under test.
type reference struct {
	lib     *runtime.Lib
	summary string
	// profile spells out the static estimate's parts; simMs is their sum in
	// a fixed order, and totals every value Profile.Total may return for
	// them (it sums the per-device times in map order, so the last bit of
	// its result varies from call to call).
	profile string
	simMs   float64
	totals  []float64
}

func newReference(lib *runtime.Lib) (*reference, error) {
	p, err := lib.Estimate()
	if err != nil {
		return nil, err
	}
	totals := profileTotals(p)
	return &reference{lib: lib, summary: planSummary(lib), profile: profileParts(p), simMs: totals[0], totals: totals}, nil
}

// profileParts renders a simulated-cost profile's parts exactly.
func profileParts(p *soc.Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dma=%v dispatch=%v subgraphs=%d", float64(p.DMATime), float64(p.DispatchTime), p.Subgraphs)
	for _, k := range deviceKinds(p) {
		fmt.Fprintf(&b, " %s=%v/%d", k, float64(p.DeviceTime[k]), p.Launches[k])
	}
	return b.String()
}

func deviceKinds(p *soc.Profile) []soc.DeviceKind {
	kinds := make([]soc.DeviceKind, 0, len(p.DeviceTime))
	for k := range p.DeviceTime {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// profileTotals returns, in ms, the profile's total summed the way
// Profile.Total sums it, once for every order of the devices; the first is
// the order of increasing device kind.
func profileTotals(p *soc.Profile) []float64 {
	var out []float64
	var perm func(rest []soc.DeviceKind, t soc.Seconds)
	perm = func(rest []soc.DeviceKind, t soc.Seconds) {
		if len(rest) == 0 {
			out = append(out, t.Ms())
			return
		}
		for i, k := range rest {
			others := append(append([]soc.DeviceKind(nil), rest[:i]...), rest[i+1:]...)
			perm(others, t+p.DeviceTime[k])
		}
	}
	perm(deviceKinds(p), p.DMATime+p.DispatchTime)
	return out
}

// isTotal reports whether ms is one of the totals Profile.Total may give.
func (ref *reference) isTotal(ms float64) bool {
	for _, t := range ref.totals {
		if ms == t {
			return true
		}
	}
	return false
}

// checkDeployed checks a deployed library against its source build.
func checkDeployed(got *runtime.Lib, ref *reference) error {
	if s := planSummary(got); s != ref.summary {
		return fmt.Errorf("plan summary differs from the source build:\n%s\nwant:\n%s", s, ref.summary)
	}
	p, err := got.Estimate()
	if err != nil {
		return err
	}
	if parts := profileParts(p); parts != ref.profile {
		return fmt.Errorf("estimate %s, want %s from the source build", parts, ref.profile)
	}
	return nil
}
