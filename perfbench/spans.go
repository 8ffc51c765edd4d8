package main

// The traced run's span recorder. Spans are taken in the benchmark's own
// code, around each call into a package's public functions; they stay
// in memory and are written out as NDJSON when the run ends. A nil
// *tracer is the untraced run: it calls straight through.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call. Req groups the spans of one request; Name is
// the layer metric stem the call feeds (core.build, lp.root, ...).
type span struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// sums and counts accumulate per-layer observations: span
	// durations in ms under the span name, and counters recorded at the
	// same call sites.
	sums   map[string]float64
	counts map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]float64{}, counts: map[string]int{}}
}

// do runs fn, recording a span named name for request req when tracing.
// It returns fn's duration either way.
func (t *tracer) do(req int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{Req: req, Name: name,
			StartUS: float64(start.Sub(t.t0)) / 1e3, DurUS: float64(d) / 1e3})
		t.sums[name] += ms(d)
		t.counts[name]++
		t.mu.Unlock()
	}
	return d
}

// add records one observation of a counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.counts[name]++
	t.mu.Unlock()
}

// mean is the average observation under name (0 when none).
func (t *tracer) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counts[name] == 0 {
		return 0
	}
	return t.sums[name] / float64(t.counts[name])
}

func (t *tracer) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sums[name]
}

// write stores the spans as NDJSON under dir, headed by the run stamp.
func (t *tracer) write(dir string, st stamp) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", st.Workload, st.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		f.Close()
		return "", err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
