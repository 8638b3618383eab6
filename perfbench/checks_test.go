package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/tensor"
	"repro/internal/video"
)

// ssdLike is a two-output expectation: boxes, then scores in [0,1].
func ssdLike() *expected {
	boxes := tensor.New(tensor.Float32, tensor.Shape{1, 2, 4})
	scores := tensor.New(tensor.Float32, tensor.Shape{1, 2, 3})
	for i := 0; i < boxes.Elems(); i++ {
		boxes.SetF(i, float64(i)-3.5)
	}
	for i := 0; i < scores.Elems(); i++ {
		scores.SetF(i, float64(i)/8)
	}
	return &expected{model: "mobilenet ssd (quant)", head: headSSD, outputs: []*tensor.Tensor{boxes, scores}, simMs: 0.25}
}

// replyFor renders the reply a correct worker sends for want.
func replyFor(want *expected) serve.InferResponse {
	resp := serve.InferResponse{Model: want.model, SimMs: want.simMs}
	for _, t := range want.outputs {
		tj := serve.TensorJSON{Shape: []int(t.Shape.Clone()), DType: t.DType.String()}
		for i := 0; i < t.Elems(); i++ {
			tj.Data = append(tj.Data, t.GetF(i))
		}
		resp.Outputs = append(resp.Outputs, tj)
	}
	return resp
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckReplyRejectsDoctoredReplies(t *testing.T) {
	want := ssdLike()
	if _, err := checkReply(mustJSON(t, replyFor(want)), want); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	cases := map[string]func(*serve.InferResponse){
		"one output value changed": func(r *serve.InferResponse) { r.Outputs[0].Data[5] += 1e-9 },
		"sim_ms off its estimate":  func(r *serve.InferResponse) { r.SimMs *= 1.0000001 },
		"output missing":           func(r *serve.InferResponse) { r.Outputs = r.Outputs[:1] },
		"other model":              func(r *serve.InferResponse) { r.Model = "emotion" },
		"wrong shape":              func(r *serve.InferResponse) { r.Outputs[1].Shape = []int{1, 3, 2} },
	}
	for name, doctor := range cases {
		resp := replyFor(want)
		doctor(&resp)
		if _, err := checkReply(mustJSON(t, resp), want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckHeadProperties(t *testing.T) {
	probs := []serve.TensorJSON{{Data: []float64{0.25, 0.5, 0.25}}}
	if err := checkHead(headEmotion, probs); err != nil {
		t.Fatalf("probabilities summing to 1 rejected: %v", err)
	}
	probs[0].Data[1] = 0.5001
	if checkHead(headEmotion, probs) == nil {
		t.Error("emotion probabilities summing to 1.0001 accepted")
	}
	scores := []serve.TensorJSON{{Data: []float64{-7}}, {Data: []float64{0, 1.0000001}}}
	if checkHead(headSSD, scores) == nil {
		t.Error("SSD score above 1 accepted")
	}
	if checkHead(headAntiSpoof, []serve.TensorJSON{{Data: []float64{-0.1}}}) == nil {
		t.Error("anti-spoofing score below 0 accepted")
	}
}

func TestCheckFrameRejectsDoctoredFrames(t *testing.T) {
	est := frameEstimates{detect: 0.004, spoof: 0.002, emotion: 0.001}
	good := func() *app.FrameResult {
		return &app.FrameResult{
			Faces: []app.FaceResult{
				{Box: video.Rect{W: 8, H: 8}, Real: true, Emotion: "happy", Confidence: 0.4},
				{Box: video.Rect{X: 20, W: 8, H: 8}, Real: false},
			},
			Timing: app.StageTiming{Detect: est.detect, AntiSpoof: est.spoof + est.spoof, Emotion: est.emotion},
		}
	}
	if err := checkFrame(good(), est); err != nil {
		t.Fatalf("correct frame rejected: %v", err)
	}
	cases := map[string]func(*app.FrameResult){
		"printed face carrying an emotion label": func(f *app.FrameResult) { f.Faces[1].Emotion = "sad" },
		"live face without an emotion label":     func(f *app.FrameResult) { f.Faces[0].Emotion = "" },
		"detect time off its estimate":           func(f *app.FrameResult) { f.Timing.Detect *= 1.0000001 },
		"emotion charged for a printed face":     func(f *app.FrameResult) { f.Timing.Emotion += est.emotion },
		"one anti-spoofing run missing":          func(f *app.FrameResult) { f.Timing.AntiSpoof = est.spoof },
	}
	for name, doctor := range cases {
		f := good()
		doctor(f)
		if checkFrame(f, est) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTruthTally(t *testing.T) {
	live := video.Actor{Box: video.Rect{W: 10, H: 10}, IsFace: true}
	printed := video.Actor{Box: video.Rect{X: 50, W: 10, H: 10}, IsFace: true, Spoofed: true}
	frame := func(liveVerdict, printedVerdict bool) *app.FrameResult {
		return &app.FrameResult{Faces: []app.FaceResult{
			{Box: live.Box, Real: liveVerdict}, {Box: printed.Box, Real: printedVerdict},
		}}
	}
	var ok truthTally
	for i := 0; i < 4; i++ {
		ok.add(frame(true, false), []video.Actor{live, printed})
	}
	ok.add(frame(false, true), []video.Actor{live, printed})
	if err := ok.check(); err != nil {
		t.Fatalf("2 disagreements in 10 rejected: %v", err)
	}
	if ok.liveAsPrinted != 1 || ok.printedAsLive != 1 || ok.matched != 10 {
		t.Errorf("tally %+v, want one disagreement each way of 10 matched", ok)
	}
	var quarter truthTally
	quarter.add(frame(true, false), []video.Actor{live, printed})
	quarter.add(frame(false, false), []video.Actor{live, printed})
	if err := quarter.check(); err != nil {
		t.Errorf("1 disagreement in 4 rejected: %v", err)
	}
	bad := quarter
	bad.add(frame(true, true), []video.Actor{live, printed})
	if bad.check() == nil {
		t.Error("2 disagreements in 6 accepted")
	}
	var oneSided truthTally
	oneSided.add(frame(true, true), []video.Actor{live})
	if oneSided.check() == nil {
		t.Error("only live verdicts accepted")
	}
}

func TestCheckPassRejectsRebuildsAndMisses(t *testing.T) {
	cold := registry.CacheStats{Misses: 14, Builds: 14, BytesWritten: 1}
	warm := registry.CacheStats{Hits: 14, DiskHits: 14, BytesRead: 1}
	if err := checkPass(true, cold, 14); err != nil {
		t.Errorf("correct cold pass rejected: %v", err)
	}
	if err := checkPass(false, warm, 14); err != nil {
		t.Errorf("correct warm pass rejected: %v", err)
	}
	rebuilt := warm
	rebuilt.Hits, rebuilt.DiskHits, rebuilt.Misses, rebuilt.Builds = 13, 13, 1, 1
	if checkPass(false, rebuilt, 14) == nil {
		t.Error("warm pass that rebuilt a model accepted")
	}
	memHit := warm
	memHit.DiskHits, memHit.MemHits = 13, 1
	if checkPass(false, memHit, 14) == nil {
		t.Error("warm pass served from a stale memory layer accepted")
	}
	hitCold := cold
	hitCold.Hits, hitCold.Builds, hitCold.Misses = 1, 13, 13
	if checkPass(true, hitCold, 14) == nil {
		t.Error("cold pass with a cache hit accepted")
	}
}

func TestProfileTotalsCoverEveryOrder(t *testing.T) {
	p := soc.NewProfile()
	p.AddOp(soc.KindCPU, 0.1)
	p.AddOp(soc.KindAPU, 0.2)
	p.AddSubgraph()
	totals := profileTotals(p)
	if len(totals) != 2 {
		t.Fatalf("%d totals for two devices, want 2", len(totals))
	}
	ref := &reference{totals: totals}
	for i := 0; i < 50; i++ {
		if got := p.Total().Ms(); !ref.isTotal(got) {
			t.Fatalf("Profile.Total %v not among %v", got, totals)
		}
	}
	if ref.isTotal(totals[0] * 1.0000001) {
		t.Error("a total off the estimate accepted")
	}
	q := soc.NewProfile()
	q.AddOp(soc.KindCPU, 0.1)
	q.AddOp(soc.KindAPU, 0.2000001)
	q.AddSubgraph()
	if profileParts(p) == profileParts(q) {
		t.Error("profiles with different APU time render the same parts")
	}
	if !strings.Contains(profileParts(p), "subgraphs=1") {
		t.Errorf("parts %q miss the subgraph count", profileParts(p))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
