package main

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/app"
	"repro/internal/runtime"
	"repro/internal/soc"
	"repro/internal/video"
)

// The showcase camera: 160×120 frames with two faces (one live, one printed
// photo) and two objects, as cmd/showcase renders by default. Each frame is
// the first frame of its own scene, seeded from the run's seed and the frame
// index: which stages a frame reaches hangs on where the faces fall, so a
// run that samples hundreds of scenes gives figures that one scene's layout
// does not decide.
const (
	videoW, videoH       = 160, 120
	videoFaces, videoObj = 2, 2
)

// sceneBatch frames are rendered at a time, outside the timed calls, and
// the garbage of rendering is collected before they are processed, so the
// camera's allocations do not start collections inside the showcase's
// frames, and every batch starts from the same heap.
const sceneBatch = 32

// sceneFrame renders frame i of the run's video.
func sceneFrame(seed uint64, i int) (*video.Frame, error) {
	src, err := video.NewSource(videoW, videoH, videoFaces, videoObj, seed*0x9E3779B97F4A7C15+uint64(i)+1)
	if err != nil {
		return nil, err
	}
	f := src.Next()
	f.Index = i
	return f, nil
}

// renderBatch renders frames first..first+sceneBatch-1 and collects.
func renderBatch(seed uint64, first int) ([]*video.Frame, error) {
	batch := make([]*video.Frame, sceneBatch)
	for k := range batch {
		f, err := sceneFrame(seed, first+k)
		if err != nil {
			return nil, err
		}
		batch[k] = f
	}
	goruntime.GC()
	return batch, nil
}

// showcaseEstimates reads each module's static simulated cost, the figure a
// frame's simulated time must be assembled from.
func showcaseEstimates(sc *app.Showcase) (frameEstimates, error) {
	det, spoof, emo := sc.Modules()
	var est frameEstimates
	for _, m := range []struct {
		gm  *runtime.GraphModule
		dst *soc.Seconds
	}{{det, &est.detect}, {spoof, &est.spoof}, {emo, &est.emotion}} {
		p, err := m.gm.Lib().Estimate()
		if err != nil {
			return est, err
		}
		*m.dst = p.Total()
	}
	return est, nil
}

// artifactMB is the total exported size of the given libraries.
func artifactMB(libs ...*runtime.Lib) (float64, error) {
	var n int
	for _, lib := range libs {
		var buf bytes.Buffer
		if err := lib.ExportLibrary(&buf); err != nil {
			return 0, err
		}
		n += buf.Len()
	}
	return float64(n) / 1e6, nil
}

func runShowcase(r *run) error {
	sc, err := setupMedian(r, 15, func() (*app.Showcase, error) {
		return app.New(app.DefaultConfig())
	}, func(*app.Showcase) {})
	if err != nil {
		return err
	}
	est, err := showcaseEstimates(sc)
	if err != nil {
		return err
	}
	det, spoof, emo := sc.Modules()
	mb, err := artifactMB(det.Lib(), spoof.Lib(), emo.Lib())
	if err != nil {
		return err
	}
	r.setE2E("artifact_mb", "MB", mb)

	var (
		frames         [][2]time.Time
		simMs          float64
		tally          truthTally
		stage          [3]float64 // traced: detect, spoof, emotion ms
		faces, liveCnt int
	)
	end := r.deadline()
	var batch []*video.Frame
	for i := 0; time.Now().Before(end); i++ {
		if i%sceneBatch == 0 {
			if batch, err = renderBatch(r.cfg.seed, i); err != nil {
				return err
			}
		}
		f := batch[i%sceneBatch]
		r.attempted++
		var res *app.FrameResult
		t0 := time.Now()
		if r.rec == nil {
			res, err = sc.ProcessFrame(f)
		} else {
			var st [3]float64
			res, st, err = tracedFrame(r.rec, sc, f, r.attempted)
			for k := range stage {
				stage[k] += st[k]
			}
		}
		t1 := time.Now()
		if err == nil {
			err = checkFrame(res, est)
		}
		if err != nil {
			r.opFailed(fmt.Errorf("frame %d: %w", f.Index, err))
			continue
		}
		frames = append(frames, [2]time.Time{t0, t1})
		simMs += res.Timing.Total().Ms()
		tally.add(res, f.Truth)
		faces += len(res.Faces)
		liveCnt += liveFaces(res)
	}
	batch = nil
	r.setE2E("retained_heap_mb", "MB", heapMB())
	if len(frames) == 0 {
		return fmt.Errorf("showcase: no frame completed")
	}
	lat := make([]float64, len(frames))
	busy := 0.0
	for i, fr := range frames {
		lat[i] = r.clock.netMs(fr[0], fr[1])
		busy += lat[i] / 1e3
	}
	// One camera in a closed loop: the frames per second the showcase
	// sustains is the inverse of its busy time per frame; rendering the next
	// frame is the camera's time, not the showcase's.
	r.summarize(lat, busy)
	n := float64(len(lat))
	r.setE2E("sim_ms", "sim-ms", simMs/n)
	if err := tally.check(); err != nil {
		r.problem("showcase ground truth: %v", err)
	}
	fmt.Printf("showcase: %d frames, %d faces matched to the ground truth: %d live judged printed, %d printed judged live\n",
		len(lat), tally.matched, tally.liveAsPrinted, tally.printedAsLive)
	if r.rec != nil {
		r.setLayer("app.detect_ms", "ms", stage[0]/n)
		r.setLayer("app.spoof_ms", "ms", stage[1]/n)
		r.setLayer("app.emotion_ms", "ms", stage[2]/n)
		r.setLayer("app.faces_per_frame", "count", float64(faces)/n)
		r.setLayer("app.live_faces_per_frame", "count", float64(liveCnt)/n)
	}
	return nil
}

// tracedFrame is ProcessFrame taken apart into its three stages, each timed
// and recorded as a child of the frame's root span.
func tracedFrame(rec *recorder, sc *app.Showcase, f *video.Frame, op int) (*app.FrameResult, [3]float64, error) {
	var st [3]float64
	tk := rec.track("showcase")
	root := tk.begin("frame", op)
	defer tk.end(root)
	t0 := time.Now()
	sp := tk.begin("app.DetectStage", op)
	res, cands, err := sc.DetectStage(f)
	tk.end(sp)
	st[0] = sinceMs(t0)
	if err != nil {
		return nil, st, err
	}
	t0 = time.Now()
	sp = tk.begin("app.SpoofStage", op)
	err = sc.SpoofStage(f, res, cands)
	tk.end(sp)
	st[1] = sinceMs(t0)
	if err != nil {
		return nil, st, err
	}
	t0 = time.Now()
	sp = tk.begin("app.EmotionStage", op)
	err = sc.EmotionStage(f, res)
	tk.end(sp)
	st[2] = sinceMs(t0)
	return res, st, err
}

func liveFaces(res *app.FrameResult) int {
	n := 0
	for _, fr := range res.Faces {
		if fr.Real {
			n++
		}
	}
	return n
}

func sinceMs(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
