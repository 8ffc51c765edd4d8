package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// postV1 marshals req and POSTs it to url, decoding the response into
// out when the status matches want.
func postV1(t *testing.T, url string, req *Request, want int, out any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, b)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestV1EventsSSE drives the observability tentpole end to end: submit
// a job over POST /v1/jobs, stream GET /v1/jobs/{id}/events until the
// server ends the stream, and check the event taxonomy — a model event,
// a root bound, at least one incumbent, a monotone best bound, and the
// terminal job transition last.
func TestV1EventsSSE(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// no prime heuristic: the incumbent must come from the branch and
	// bound itself, so the stream carries real incumbent events
	req := fastRequest()
	req.Options.PrimeHeuristic = false

	var job JobInfo
	postV1(t, ts.URL+"/v1/jobs", req, http.StatusAccepted, &job)
	if job.ID == "" {
		t.Fatal("submit returned no job ID")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: Content-Type %q", ct)
	}

	// the stream ends when the job finalizes and its ring closes; the
	// server closes the response body, so reading to EOF is the contract
	var events []trace.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e trace.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}

	kinds := map[trace.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindModel, trace.KindRoot, trace.KindIncumbent, trace.KindJob} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in stream (got %v)", k, kinds)
		}
	}

	// the proved bound never regresses across root/node/bound/status
	prev := -1e18
	for _, e := range events {
		switch e.Kind {
		case trace.KindRoot, trace.KindNode, trace.KindBound, trace.KindStatus:
			if e.Bound < prev-1e-9 {
				t.Fatalf("bound regressed: %g after %g (seq %d)", e.Bound, prev, e.Seq)
			}
			if e.Bound > prev {
				prev = e.Bound
			}
		}
	}

	last := events[len(events)-1]
	if last.Kind != trace.KindJob {
		t.Fatalf("last event kind %q, want job", last.Kind)
	}
	if last.Status != string(StatusDone) {
		t.Fatalf("terminal job status %q, want done", last.Status)
	}
	if !last.HasIncumbent {
		t.Fatal("terminal job event carries no incumbent")
	}

	info := waitFinished(t, s, job.ID, time.Second)
	if info.Status != StatusDone {
		t.Fatalf("job finished %s: %s", info.Status, info.Error)
	}
}

// TestV1ErrorEnvelope checks the uniform {"error":{code,message}} body
// and status mapping of the v1 surface.
func TestV1ErrorEnvelope(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	check := func(resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		var e errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
		if e.Error.Code != wantCode {
			t.Fatalf("code %q, want %q", e.Error.Code, wantCode)
		}
		if e.Error.Message == "" {
			t.Fatal("empty error message")
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "not_found")

	resp, err = http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "not_found")

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "bad_request")

	resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"graph":""}`))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "bad_request")
}

// TestRemovedOptionSpellingsRejected: a body that still carries a
// removed search spelling is a typed 400 naming the field, never a
// solve that silently ignores it; the same body without the field
// solves.
func TestRemovedOptionSpellingsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := func(mut func(opts map[string]any)) map[string]any {
		t.Helper()
		b, err := json.Marshal(fastRequest())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		mut(m["options"].(map[string]any))
		return m
	}
	for _, tc := range []struct {
		field string
		mut   func(opts map[string]any)
	}{
		{"parallelism", func(o map[string]any) { o["parallelism"] = 4 }},
		{"branch", func(o map[string]any) { o["branch"] = "most-fractional" }},
		{"parallel_threshold", func(o map[string]any) { o["parallel_threshold"] = -1 }},
		{"threshold", func(o map[string]any) {
			o["search"] = map[string]any{"parallelism": 2, "threshold": -1}
		}},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/solve", body(tc.mut))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.field, resp.StatusCode, data)
		}
		var e errorEnvelope
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("%s: decoding envelope: %v", tc.field, err)
		}
		if e.Error.Code != "bad_request" || !strings.Contains(e.Error.Message, `unknown field "`+tc.field+`"`) {
			t.Fatalf("%s: error = %+v, want bad_request naming the field", tc.field, e.Error)
		}
	}
	resp, data := postJSON(t, ts.URL+"/v1/solve", body(func(o map[string]any) {
		o["search"] = map[string]any{"parallelism": 2, "branch": "most-fractional"}
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving spelling: status %d: %s", resp.StatusCode, data)
	}
}

// TestV1MetricsPrometheus checks the text exposition endpoint.
func TestV1MetricsPrometheus(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	if _, err := s.Solve(context.Background(), fastRequest()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE tpserve_workers gauge",
		"# TYPE tpserve_jobs_submitted_total counter",
		"tpserve_jobs_submitted_total 1",
		"tpserve_jobs_completed_total 1",
		"tpserve_bb_nodes_total",
		"tpserve_lp_pivots_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestRemovedAliases checks the end state of the pre-/v1 deprecation
// cycle: the unversioned paths are gone and answer with the typed 404
// envelope naming their /v1 successor, except GET /healthz, which
// survives as a permanent liveness alias for probes configured outside
// the API's versioning.
func TestRemovedAliases(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	checkGone := func(resp *http.Response, path, successor string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
		var e errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: 404 body is not the error envelope: %v", path, err)
		}
		if e.Error.Code != "gone" {
			t.Errorf("%s: error code %q, want gone", path, e.Error.Code)
		}
		if !strings.Contains(e.Error.Message, successor) {
			t.Errorf("%s: message %q does not name successor %s", path, e.Error.Message, successor)
		}
	}

	for _, tc := range []struct{ alias, successor string }{
		{"/metrics", "/v1/stats"},
		{"/jobs/some-id", "/v1/jobs/some-id"},
	} {
		resp, err := http.Get(ts.URL + tc.alias)
		if err != nil {
			t.Fatal(err)
		}
		checkGone(resp, "GET "+tc.alias, tc.successor)
	}
	body, _ := json.Marshal(fastRequest())
	for _, tc := range []struct{ alias, successor string }{
		{"/solve", "/v1/solve"},
		{"/jobs", "/v1/jobs"},
	} {
		resp, err := http.Post(ts.URL+tc.alias, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		checkGone(resp, "POST "+tc.alias, tc.successor)
	}

	// unknown paths outside the alias set get the envelope too
	resp, err := http.Get(ts.URL + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path: status %d, want 404", resp.StatusCode)
		}
		var e errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("unknown path: 404 body is not the error envelope: %v", err)
		}
		if e.Error.Code != "not_found" {
			t.Errorf("unknown path: error code %q, want not_found", e.Error.Code)
		}
	}()

	// the liveness exception: /healthz still answers, identically to
	// /v1/healthz and without deprecation headers
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("GET %s: unexpected Deprecation header", path)
		}
		if !strings.Contains(string(b), `"ok"`) {
			t.Errorf("GET %s: body %s", path, b)
		}
	}
}

// TestStatsChurn hammers Stats() while jobs are submitted, cancelled
// and completed concurrently. Run under -race it proves the metrics
// counters are consistently locked; the final snapshot must balance.
func TestStatsChurn(t *testing.T) {
	s := New(Config{Workers: 4})
	defer closeBounded(t, s)

	const (
		submitters    = 4
		perSubmitter  = 6
		totalSubmits  = submitters * perSubmitter
		statsReaders  = 4
		statsDuration = 200 * time.Millisecond
	)

	var wg sync.WaitGroup
	ids := make(chan string, totalSubmits)

	stop := make(chan struct{})
	for r := 0; r < statsReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.Submitted < st.Completed+st.Failed+st.Cancelled {
					t.Errorf("stats ran ahead: %+v", st)
					return
				}
				_ = st.Workers
			}
		}()
	}

	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				req := fastRequest()
				id, err := s.Submit(req)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// cancel a third of the jobs right away: some while
				// queued, some mid-solve, some already finished
				if i%3 == 0 {
					s.Cancel(id)
				}
				ids <- id
			}
		}(g)
	}

	deadline := time.After(statsDuration)
	<-deadline
	close(stop)

	collected := make([]string, 0, totalSubmits)
	for len(collected) < totalSubmits {
		collected = append(collected, <-ids)
	}
	for _, id := range collected {
		waitFinished(t, s, id, 30*time.Second)
	}
	wg.Wait()

	st := s.Stats()
	if st.Submitted != totalSubmits {
		t.Fatalf("submitted = %d, want %d", st.Submitted, totalSubmits)
	}
	if got := st.Completed + st.Failed + st.Cancelled; got != totalSubmits {
		t.Fatalf("completed %d + failed %d + cancelled %d = %d, want %d",
			st.Completed, st.Failed, st.Cancelled, got, totalSubmits)
	}
	if st.Failed != 0 {
		t.Fatalf("failed = %d, want 0", st.Failed)
	}
	// the running gauge may lag a cancelled job's terminal status by a
	// scheduling tick (Cancel settles the job while its worker is still
	// unwinding run), so poll for the drain instead of asserting on one
	// snapshot
	deadlineAt := time.Now().Add(10 * time.Second)
	for st.Running != 0 || st.Queued != 0 {
		if time.Now().After(deadlineAt) {
			t.Fatalf("service not drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		st = s.Stats()
	}
}
