package main

import (
	"bufio"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder keeps the traced run's spans in memory. Each operation is one
// root span; the spans of its calls into the program's layers nest inside it
// on the same track and carry the operation's ID in their "op" argument.
type recorder struct {
	tracer *obs.Tracer

	mu     sync.Mutex
	tracks map[string]*rtrack
}

// rtrack is one goroutine's row of spans.
type rtrack struct{ tk *obs.Track }

type openSpan struct {
	name  string
	op    int
	start time.Time
}

func newRecorder() *recorder {
	return &recorder{tracer: obs.NewTracer(1 << 16), tracks: map[string]*rtrack{}}
}

// track returns the named row, creating it on first use. A row must be
// written by one goroutine at a time.
func (rc *recorder) track(name string) *rtrack {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	t, ok := rc.tracks[name]
	if !ok {
		t = &rtrack{tk: rc.tracer.NewTrack(name)}
		rc.tracks[name] = t
	}
	return t
}

func (t *rtrack) begin(name string, op int) openSpan {
	return openSpan{name: name, op: op, start: time.Now()}
}

func (t *rtrack) end(s openSpan, args ...obs.Arg) {
	t.tk.Emit(s.name, "perfbench", s.start, time.Since(s.start), append(args, obs.A("op", s.op))...)
}

func (rc *recorder) len() int {
	spans, _ := rc.tracer.Snapshot()
	return len(spans)
}

// write exports every span as Chrome trace_event JSON, which Perfetto loads.
func (rc *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans, names := rc.tracer.Snapshot()
	if err := obs.WriteChromeTraceEpoch(w, spans, names, rc.tracer.Epoch()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
