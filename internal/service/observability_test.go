package service

// End-to-end coverage of the observability stack over the HTTP API:
// span trees with W3C trace-context propagation, the live
// /v1/debug/solves introspection surface, the black-box anomaly
// recorder (panic injection through Config.InjectFault), the stall
// watchdog, /v1/version and the queue-wait metrics.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/trace"
)

// TestBlackboxPanicE2E injects a worker panic at a known node into a
// parallel solve and retrieves the black-box dump over HTTP: the job
// fails with an error naming the node, and the dump's frozen tail
// identifies the failing node with the panic stack.
func TestBlackboxPanicE2E(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		InjectFault: func(op *core.Options) {
			op.PanicNode = 3
			op.Search = &core.SearchOptions{Parallelism: 4}
		},
	})

	req := heavyRequest(901)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for !info.Status.Finished() {
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", info.Status)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+info.ID, &info)
	}
	if info.Status != StatusFailed {
		t.Fatalf("panicked job finished %s (want failed): %+v", info.Status, info)
	}
	if !strings.Contains(info.Error, "worker panic at node 3") {
		t.Fatalf("job error %q does not name the failing node", info.Error)
	}
	if info.BlackBox != "worker-panic" {
		t.Fatalf("job black_box = %q, want worker-panic", info.BlackBox)
	}

	var dump trace.BBDump
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+info.ID+"/blackbox", &dump); resp.StatusCode != http.StatusOK {
		t.Fatalf("blackbox endpoint: %d", resp.StatusCode)
	}
	if !dump.Flushed || dump.Reason != "worker-panic" {
		t.Fatalf("dump flushed=%v reason=%q", dump.Flushed, dump.Reason)
	}
	last := dump.Events[len(dump.Events)-1]
	if last.Kind != trace.BBPanic || last.Node != 3 {
		t.Fatalf("dump tail = %+v, want the panic at node 3", last)
	}
	if !strings.Contains(last.Msg, "injected fault") {
		t.Fatalf("panic event msg = %q", last.Msg)
	}
}

// TestDebugSolvesLiveE2E polls /v1/debug/solves during a deliberately
// slowed solve and asserts the live introspection figures — the gap
// field (always present, -1 until known), node counts and per-worker
// phases — are served mid-flight.
func TestDebugSolvesLiveE2E(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		InjectFault: func(op *core.Options) {
			op.NodeDelay = 3 * time.Millisecond
			op.Search = &core.SearchOptions{Parallelism: 4}
		},
	})

	_, body := postJSON(t, ts.URL+"/v1/jobs", heavyRequest(902))
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	type debugPage struct {
		Solves []SolveDebug `json:"solves"`
	}
	var live SolveDebug
	var raw []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no live search snapshot within 30s")
		}
		resp, err := http.Get(ts.URL + "/v1/debug/solves")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		var page debugPage
		if err := json.Unmarshal(raw, &page); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
		found := false
		for _, d := range page.Solves {
			if d.ID == info.ID && d.Search != nil && d.Search.Running && d.Search.Nodes > 0 {
				live, found = d, true
			}
		}
		if found {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// the wire form always carries the gap (the CI smoke greps for it)
	if !bytes.Contains(raw, []byte(`"gap":`)) {
		t.Fatalf("debug page lacks a gap field: %s", raw)
	}
	if live.Graph == "" || live.RunningMS <= 0 || live.TraceID == "" {
		t.Fatalf("live entry incomplete: %+v", live)
	}
	s := live.Search
	if s.Mode == "" || s.Workers < 1 || len(s.WorkerPhases) == 0 {
		t.Fatalf("live search incomplete: %+v", s)
	}
	if s.Gap == 0 {
		t.Fatalf("gap = 0 mid-solve, want -1 (unknown) or a real gap: %+v", s)
	}

	// cancelled jobs leave the page
	http.DefaultClient.Do(mustRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil))
	waitGone := time.Now().Add(10 * time.Second)
	for {
		var page debugPage
		getJSON(t, ts.URL+"/v1/debug/solves", &page)
		still := false
		for _, d := range page.Solves {
			if d.ID == info.ID {
				still = true
			}
		}
		if !still {
			break
		}
		if time.Now().After(waitGone) {
			t.Fatal("cancelled job still listed in /v1/debug/solves")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceparentPropagationE2E submits with a W3C traceparent header
// and verifies the job joins the caller's trace: the response echoes a
// traceparent naming the job's root span, the job info carries the
// trace id, and the span tree served by /v1/jobs/{id}/spans parents the
// request span onto the caller's span.
func TestTraceparentPropagationE2E(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	hdr := "00-" + callerTrace + "-" + callerSpan + "-01"

	body, err := json.Marshal(fastRequest())
	if err != nil {
		t.Fatal(err)
	}
	req := mustRequest(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", hdr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	echo := resp.Header.Get("Traceparent")
	tid, sid, ok := trace.ParseTraceparent(echo)
	if !ok || tid != callerTrace {
		t.Fatalf("echoed traceparent %q does not join trace %s", echo, callerTrace)
	}
	var info JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.TraceID != callerTrace {
		t.Fatalf("job trace id = %q", info.TraceID)
	}

	for !info.Status.Finished() {
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+info.ID, &info)
	}
	if info.Status != StatusDone {
		t.Fatalf("job finished %s: %s", info.Status, info.Error)
	}

	var page struct {
		Spans []trace.SpanRec `json:"spans"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+info.ID+"/spans", &page)
	byName := map[string]trace.SpanRec{}
	for _, sp := range page.Spans {
		if sp.TraceID != callerTrace {
			t.Fatalf("span %s has trace id %q", sp.Name, sp.TraceID)
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{"request", "queue", "solve", "build", "root-lp", "search"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("span tree lacks %q: have %v", want, names(page.Spans))
		}
	}
	root := byName["request"]
	if root.ParentID != callerSpan {
		t.Fatalf("request span parent %q, want the caller's span %s", root.ParentID, callerSpan)
	}
	if byName["solve"].ParentID != root.SpanID || byName["queue"].ParentID != root.SpanID {
		t.Fatal("queue/solve spans not parented on the request root")
	}
	// the echoed traceparent names the request root span
	if sid != root.SpanID {
		t.Fatalf("echoed span id %q, want the request root %q", sid, root.SpanID)
	}
	if bs := byName["build"]; bs.Num["vars"] <= 0 || bs.Num["rows"] <= 0 {
		t.Fatalf("build span lacks model-shape attrs: %+v", bs)
	}
}

// TestStallWatchdogE2E slows the search far below the stall window and
// asserts the watchdog fires: the job is marked stalled, a stall event
// lands in the trace stream and the black box flushes under "stall".
func TestStallWatchdogE2E(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:     1,
		StallWindow: 60 * time.Millisecond,
		InjectFault: func(op *core.Options) { op.NodeDelay = 500 * time.Millisecond },
	})

	_, body := postJSON(t, ts.URL+"/v1/jobs", heavyRequest(903))
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !info.Stalled {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never fired; job %s: %+v", info.Status, info)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+info.ID, &info)
	}
	if info.BlackBox != "stall" {
		t.Fatalf("job black_box = %q, want stall", info.BlackBox)
	}
	var dump trace.BBDump
	getJSON(t, ts.URL+"/v1/jobs/"+info.ID+"/blackbox", &dump)
	if !dump.Flushed || dump.Reason != "stall" {
		t.Fatalf("dump flushed=%v reason=%q", dump.Flushed, dump.Reason)
	}
	tail := dump.Events[len(dump.Events)-1]
	if tail.Kind != trace.BBStall {
		t.Fatalf("dump tail = %+v, want the stall marker", tail)
	}

	// the stall also lands in the job's live event stream
	ring, err := s.Events(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	evs, _ := ring.Since(0)
	var sawStall bool
	for _, e := range evs {
		if e.Kind == trace.KindStall {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("no stall event in the job's trace stream")
	}
	s.Cancel(info.ID)
}

// TestVersionAndBuildInfoE2E pins /v1/version and the constant
// tpserve_build_info gauge on /v1/metrics.
func TestVersionAndBuildInfoE2E(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var bi BuildInfo
	if resp := getJSON(t, ts.URL+"/v1/version", &bi); resp.StatusCode != http.StatusOK {
		t.Fatalf("version endpoint: %d", resp.StatusCode)
	}
	if bi.Module != "repro" {
		t.Fatalf("module = %q, want repro", bi.Module)
	}
	if bi.Go == "" || bi.Version == "" {
		t.Fatalf("incomplete build info: %+v", bi)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("tpserve_build_info{")) {
		t.Fatal("metrics lack the tpserve_build_info gauge")
	}
	if !bytes.Contains(metrics, []byte(`go="`+bi.Go+`"`)) {
		t.Fatal("tpserve_build_info does not carry the toolchain label")
	}
}

// TestQueueWaitPhaseAndHistogram runs jobs through a 1-worker service
// and asserts the queue wait surfaces everywhere it should: the
// queue-wait phase in the stats snapshot, the dedicated Prometheus
// histogram, and the per-job queue_wait_ms field.
func TestQueueWaitPhaseAndHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var last JobInfo
	for i := 0; i < 3; i++ { // identical fast jobs: queue behind each other
		_, body := postJSON(t, ts.URL+"/v1/jobs", fastRequest())
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
	}
	info := waitFinished(t, s, last.ID, 30*time.Second)
	if info.QueueWaitMS < 0 {
		t.Fatalf("queue_wait_ms = %v", info.QueueWaitMS)
	}
	var sawPhase bool
	for _, ph := range s.Stats().Phases {
		if ph.Name == trace.PhaseQueueWait.String() {
			sawPhase = ph.Count >= 3
		}
	}
	if !sawPhase {
		t.Fatalf("stats phases lack queue-wait observations: %+v", s.Stats().Phases)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tpserve_queue_wait_seconds_bucket{le=",
		"tpserve_queue_wait_seconds_count",
		`tpserve_phase_seconds_bucket{phase="queue-wait"`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics lack %q:\n%s", want, metrics)
		}
	}
}

// TestDeadlineFlushesBlackBox pins the deadline anomaly trigger: a
// solve that runs out of time leaves a flushed black box behind.
func TestDeadlineFlushesBlackBox(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:     1,
		InjectFault: func(op *core.Options) { op.NodeDelay = 20 * time.Millisecond },
	})
	req := heavyRequest(904)
	req.Options.TimeLimitMS = 250
	_, body := postJSON(t, ts.URL+"/v1/jobs", req)
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	info = waitFinished(t, s, info.ID, 30*time.Second)
	if info.BlackBox != "deadline" && info.BlackBox != "cancelled" {
		t.Fatalf("job black_box = %q, want a deadline flush (info %+v)", info.BlackBox, info)
	}
	var dump trace.BBDump
	getJSON(t, ts.URL+"/v1/jobs/"+info.ID+"/blackbox", &dump)
	if !dump.Flushed {
		t.Fatal("black box not flushed by the deadline")
	}
}

// TestSearchSnapshotJSONGapAlwaysPresent pins the wire contract the CI
// smoke test greps for: the gap field is emitted even while unknown.
func TestSearchSnapshotJSONGapAlwaysPresent(t *testing.T) {
	b, err := json.Marshal(milp.SearchSnapshot{Gap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"gap":-1`)) {
		t.Fatalf("snapshot JSON omits the unknown gap: %s", b)
	}
}

func mustRequest(t *testing.T, method, url string, body io.Reader) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func names(spans []trace.SpanRec) []string {
	var out []string
	for _, sp := range spans {
		out = append(out, fmt.Sprintf("%s(worker=%d)", sp.Name, sp.Worker))
	}
	return out
}
