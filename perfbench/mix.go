package main

// service-mix: HTTP traffic against an in-process service.NewHandler
// server with its default configuration (one worker per CPU, probe on,
// serial search), from one caller on a fixed schedule: about 70%
// distinct seeded randgraph instances, 20% repeats of an earlier
// request and 10% device-α amends of an earlier job, submitted with
// async POST /v1/jobs and read back with GET /v1/jobs/{id} until done,
// with GET /v1/stats alongside. Decode, keying, cache, admission and
// encode are a large share of each request's work here.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/trace"
)

// mixRPS is the rate at which the one caller's requests are due, per
// second. It keeps the caller busy about a third of the time on the
// 2-CPU machine the benchmark was written on, so that it keeps its
// schedule on a host two or three times slower, and every run sends the
// same requests. A request due while the previous one is still open is
// sent when that one finishes.
const mixRPS = 60.0

const (
	// latencyLimit is the goodput limit.
	latencyLimit = 250 * time.Millisecond
	// pollFirst and pollEvery bound the wait between two reads of a
	// pending job's record: the wait starts at pollFirst and doubles up
	// to pollEvery, so the number of reads grows with the logarithm of
	// a job's duration.
	pollFirst = 250 * time.Microsecond
	pollEvery = 10 * time.Millisecond
	// statsEvery is how many requests apart GET /v1/stats is read.
	statsEvery = 25
	// amendAge is how long before an amend its base is scheduled: a
	// user amending a result just received. It is short enough that the
	// base's build is still in the delta engine's cache (its last eight
	// solves), so amends take the warm and reuse paths.
	amendAge = 50 * time.Millisecond
	// jobLimit bounds the wait for one job; a job still pending then
	// counts as failed.
	jobLimit = 30 * time.Second
	// maxLag is the lateness beyond which the caller did not keep its
	// schedule and the run is invalid.
	maxLag = 5 * time.Second
)

type slotKind int

const (
	kindDistinct slotKind = iota
	kindRepeat
	kindAmend
)

// mixSlot is one scheduled request.
type mixSlot struct {
	at    time.Duration // offset from the phase start
	kind  slotKind
	entry int     // pool index
	alpha float64 // device α the result answers to
	of    int     // repeat: original slot; amend: base slot
	body  []byte
}

// poolCase is a pool entry made ready for requests and checks.
type poolCase struct {
	entry poolEntry
	text  string       // graph body without its header line
	g     *graph.Graph // parsed, for partition.Verify
}

// mixEnv is a set-up service-mix: the pool, the server and its client.
type mixEnv struct {
	pool  []poolCase
	alloc *library.Allocation
	svc   *service.Service
	srv   *httptest.Server
	hc    *http.Client
	// passes counts the traffic passes sent, so that every pass names
	// its requests, and so keys its cache entries, apart.
	passes int
}

func (env *mixEnv) close() {
	env.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = env.svc.Close(ctx) // only reports jobs cut short by the timeout
	env.hc.CloseIdleConnections()
}

// want is the recorded verdict of a pool case under device α.
func (pc poolCase) want(alpha float64) verdict {
	switch alpha {
	case relaxAlpha:
		return pc.entry.Relax
	case tightenAlpha:
		return pc.entry.Tighten
	}
	return pc.entry.Base
}

// mixSetup parses the pool, checks the recorded verdicts of every
// instance within the oracle's limits against oracle.Solve, starts the
// server and sends it one warm-up request per pool case in ten.
func mixSetup() (*mixEnv, error) {
	alloc, err := mixAlloc()
	if err != nil {
		return nil, err
	}
	env := &mixEnv{alloc: alloc}
	for _, e := range mixPool {
		text, err := poolGraphText(e)
		if err != nil {
			return nil, err
		}
		g, err := graph.ParseString("graph pool\n" + text)
		if err != nil {
			return nil, err
		}
		pc := poolCase{entry: e, text: text, g: g}
		for _, alpha := range []float64{0, relaxAlpha, tightenAlpha} {
			o, err := oracle.Solve(g, alloc, mixDevice(alpha), mixN, mixL)
			if errors.Is(err, oracle.ErrTooLarge) {
				break
			}
			if err != nil {
				return nil, err
			}
			if w := pc.want(alpha); o.Feasible != w.Feasible || (o.Feasible && o.Comm != w.Comm) {
				return nil, fmt.Errorf("pool seed %d α=%g: recorded %+v, oracle feasible=%v comm=%d",
					e.Seed, alpha, w, o.Feasible, o.Comm)
			}
		}
		env.pool = append(env.pool, pc)
	}
	env.svc = service.New(service.Config{})
	env.srv = httptest.NewServer(service.NewHandler(env.svc))
	env.hc = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   30 * time.Second,
	}
	var warm []mixSlot
	for i := 0; i < len(env.pool); i += 10 {
		warm = append(warm, env.distinct(i, fmt.Sprintf("warmup-%d", i)))
	}
	tl := &tally{}
	ph := env.runPhase("warmup", warm, tl, nil)
	if tl.failed > 0 || ph.verified != len(warm) {
		env.close()
		return nil, fmt.Errorf("service-mix warm-up: %d of %d failed: %v", tl.failed, len(warm), tl.msgs)
	}
	return env, nil
}

func (env *mixEnv) distinct(entry int, name string) mixSlot {
	body, _ := json.Marshal(map[string]any{ // maps of strings and ints always marshal
		"graph":   "graph " + name + "\n" + env.pool[entry].text,
		"options": map[string]int{"n": mixN, "l": mixL},
	})
	return mixSlot{kind: kindDistinct, entry: entry, body: body}
}

// schedule draws a phase's requests: rate per second for d, evenly
// spaced. Every block of ten slots holds, in seeded order, seven
// distinct requests, two repeats of an earlier distinct request of the
// phase and one amend, alternately relaxing and tightening α, of the
// latest distinct request scheduled at least amendAge earlier (a
// distinct request stands in while there is none). Distinct requests
// walk the pool in seeded permutations, so every seed offers the same
// work in another order.
func (env *mixEnv) schedule(rng *rand.Rand, phase string, rate float64, d time.Duration) []mixSlot {
	n := int(rate * d.Seconds())
	slots := make([]mixSlot, 0, n)
	var distinct []int // slot indices of distinct requests so far
	var order []int    // pool indices still to walk
	block := []slotKind{kindDistinct, kindDistinct, kindDistinct, kindDistinct, kindDistinct,
		kindDistinct, kindDistinct, kindRepeat, kindRepeat, kindAmend}
	amends := 0
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		at := time.Duration(float64(i) / rate * float64(time.Second))
		old := 0 // distinct requests scheduled at least amendAge ago
		for old < len(distinct) && slots[distinct[old]].at <= at-amendAge {
			old++
		}
		var s mixSlot
		switch kind := block[i%len(block)]; {
		case kind == kindAmend && old > 0:
			of := distinct[old-1]
			alpha := relaxAlpha
			if amends%2 == 1 {
				alpha = tightenAlpha
			}
			amends++
			body, _ := json.Marshal(map[string]any{"device": map[string]float64{"alpha": alpha}})
			s = mixSlot{kind: kindAmend, entry: slots[of].entry, alpha: alpha, of: of, body: body}
		case kind == kindRepeat && len(distinct) > 0:
			of := distinct[rng.Intn(len(distinct))]
			s = slots[of]
			s.kind, s.of = kindRepeat, of
		default:
			if len(order) == 0 {
				order = rng.Perm(len(env.pool))
			}
			s = env.distinct(order[0], fmt.Sprintf("%s-%d", phase, i))
			order = order[1:]
			distinct = append(distinct, i)
		}
		s.at = at
		slots = append(slots, s)
	}
	return slots
}

// slotResult is what became of one slot.
type slotResult struct {
	id   string
	done bool
	// cpu is the CPU time the process used from the request's send to
	// the read that saw its job finished. The caller has one request
	// open at a time, so this is the client's, the server's and the
	// collector's work for this request alone; it leaves out the time
	// the host gives to others.
	cpu time.Duration
	// wall runs from the send to the moment the job record finished,
	// which the record itself gives (submission plus queue wait plus
	// solve), so the poll interval does not enter it.
	wall time.Duration
	info service.JobInfo
}

// phaseRun is what one phase observed.
type phaseRun struct {
	results  []slotResult
	verified int
	goodput  int
	lagMax   time.Duration
	shed     int
	sent     int
	repeats  int
	amends   int
	statsA   service.Stats
	statsB   service.Stats
}

// runPhase sends the slots from one caller, each when it is due or,
// when the previous one is still open, as soon as that one has
// finished, then checks every result. With t set, client calls are
// recorded as spans.
func (env *mixEnv) runPhase(phase string, slots []mixSlot, tl *tally, t *tracer) phaseRun {
	run := phaseRun{results: make([]slotResult, len(slots))}
	var err error
	if run.statsA, err = env.stats(t); err != nil {
		tl.fail(true, "GET /v1/stats: %v", err)
	}
	// Start each phase from a collected heap, so that the collections
	// inside it fall at the same points run after run.
	runtime.GC()
	start := time.Now()
	for i, s := range slots {
		due := start.Add(s.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if lag := time.Since(due); lag > run.lagMax {
			run.lagMax = lag
		}
		if i%statsEvery == 0 {
			if _, err := env.stats(t); err != nil {
				tl.fail(true, "GET /v1/stats: %v", err)
			}
		}
		run.sent++
		path := "/v1/jobs"
		switch s.kind {
		case kindRepeat:
			run.repeats++
		case kindAmend:
			run.amends++
			base := run.results[s.of]
			if !base.done {
				tl.fail(false, "slot %d: amend base slot %d did not finish", i, s.of)
				continue
			}
			path = "/v1/jobs/" + base.id + "/amend"
		}
		if env.request(i, path, s.body, tl, t, &run.results[i]) {
			run.shed++
		}
	}
	if run.statsB, err = env.stats(t); err != nil {
		tl.fail(true, "GET /v1/stats: %v", err)
	}
	env.checkPhase(phase, slots, tl, t, &run)
	return run
}

// request sends slot i to path and reads its job's record until the
// job has finished, filling r; a failure is counted in tl. It reports
// whether the request was shed with a 429.
func (env *mixEnv) request(i int, path string, body []byte, tl *tally, t *tracer, r *slotResult) (shed bool) {
	c0, sent := cpuTime(), time.Now()
	var code int
	var hdr http.Header
	var data []byte
	var err error
	t.do(i, "service.submit", func() { code, hdr, data, err = env.call(http.MethodPost, path, body) })
	if err != nil {
		tl.fail(false, "slot %d: %v", i, err)
		return false
	}
	switch code {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		if err := checkShed(hdr, data); err != nil {
			tl.fail(true, "slot %d: malformed 429: %v", i, err)
		} else {
			tl.fail(false, "slot %d: shed (429)", i)
		}
		return true
	default:
		tl.fail(code < 500, "slot %d: HTTP %d: %s", i, code, bytes.TrimSpace(data))
		return false
	}
	var info service.JobInfo
	if err := json.Unmarshal(data, &info); err != nil || info.ID == "" {
		tl.fail(true, "slot %d: unparsable 202 body: %v", i, err)
		return false
	}
	wait := pollFirst
	for !info.Status.Finished() {
		if time.Since(sent) > jobLimit {
			tl.fail(false, "slot %d: job %s unfinished after %v", i, info.ID, jobLimit)
			return false
		}
		time.Sleep(wait)
		wait = min(2*wait, pollEvery)
		t.do(i, "service.poll", func() { code, _, data, err = env.call(http.MethodGet, "/v1/jobs/"+info.ID, nil) })
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &info)
		}
		if err != nil {
			tl.fail(code != 0 && code < 500, "slot %d: GET job: %v", i, err)
			return false
		}
	}
	r.cpu = cpuTime() - c0
	finished := info.SubmittedAt.Add(time.Duration((info.QueueWaitMS + info.SolveMS) * float64(time.Millisecond)))
	r.id, r.done, r.wall, r.info = info.ID, true, finished.Sub(sent), info
	return false
}

// checkPhase checks every finished job: a proved result whose verdict
// and comm are the recorded ones for its instance and device, whose
// partition passes partition.Verify, and, for a repeat, whose solution
// is its original's.
func (env *mixEnv) checkPhase(phase string, slots []mixSlot, tl *tally, t *tracer, run *phaseRun) {
	for i, s := range slots {
		r := run.results[i]
		if !r.done {
			continue
		}
		if err := env.checkResult(t, i, s, r.info); err != nil {
			tl.fail(true, "%s slot %d: %v", phase, i, err)
			continue
		}
		if s.kind == kindRepeat {
			if o := run.results[s.of]; o.done && !sameSolution(o.info.Result, r.info.Result) {
				tl.fail(true, "%s slot %d: repeat of slot %d returned a different solution", phase, i, s.of)
				continue
			}
		}
		tl.ok()
		run.verified++
		if r.cpu <= latencyLimit {
			run.goodput++
		}
	}
}

func (env *mixEnv) checkResult(t *tracer, req int, s mixSlot, info service.JobInfo) error {
	if info.Status != service.StatusDone || info.Result == nil {
		return fmt.Errorf("job %s %s: %s", info.ID, info.Status, info.Error)
	}
	o := info.Result
	if !o.Optimal || o.Cancelled {
		return fmt.Errorf("job %s not proved (optimal=%v cancelled=%v)", info.ID, o.Optimal, o.Cancelled)
	}
	pc := env.pool[s.entry]
	w := pc.want(s.alpha)
	if o.Feasible != w.Feasible || o.Comm != w.Comm {
		return fmt.Errorf("job %s: feasible=%v comm=%d, recorded %+v (pool seed %d, α=%g)",
			info.ID, o.Feasible, o.Comm, w, pc.entry.Seed, s.alpha)
	}
	if !o.Feasible {
		return nil
	}
	sol := &partition.Solution{N: o.N, Comm: o.Comm,
		TaskPartition: o.TaskPartition, OpStep: o.OpStep, OpUnit: o.OpUnit}
	var err error
	t.do(req, "partition.verify", func() {
		err = partition.Verify(pc.g, env.alloc, mixDevice(s.alpha), sol, partition.VerifyOptions{L: mixL})
	})
	return err
}

func sameSolution(a, b *service.Outcome) bool {
	return a != nil && b != nil && a.Feasible == b.Feasible && a.Comm == b.Comm &&
		slices.Equal(a.TaskPartition, b.TaskPartition) &&
		slices.Equal(a.OpStep, b.OpStep) && slices.Equal(a.OpUnit, b.OpUnit)
}

// checkShed checks a 429: a typed error code and a positive whole
// Retry-After.
func checkShed(hdr http.Header, data []byte) error {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	if env.Error.Code != service.ShedQueueFull && env.Error.Code != service.ShedRateLimited {
		return fmt.Errorf("code %q", env.Error.Code)
	}
	if n, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || n < 1 {
		return fmt.Errorf("Retry-After %q", hdr.Get("Retry-After"))
	}
	return nil
}

func (env *mixEnv) call(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, env.srv.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := env.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

func (env *mixEnv) stats(t *tracer) (service.Stats, error) {
	var s service.Stats
	var code int
	var data []byte
	var err error
	t.do(-1, "service.stats", func() { code, _, data, err = env.call(http.MethodGet, "/v1/stats", nil) })
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("HTTP %d", code)
	}
	return s, json.Unmarshal(data, &s)
}

// latencies returns the phase's completed requests' CPU times in ms.
func (run *phaseRun) latencies() []float64 {
	var out []float64
	for _, r := range run.results {
		if r.done {
			out = append(out, ms(r.cpu))
		}
	}
	return out
}

// walls returns the phase's completed requests' wall times in ms.
func (run *phaseRun) walls() []float64 {
	var out []float64
	for _, r := range run.results {
		if r.done {
			out = append(out, ms(r.wall))
		}
	}
	return out
}

// mixPhase runs one phase of d on env's server. A smoke run offers a
// fifth of the rate, which a build with the race detector keeps up
// with.
func (env *mixEnv) mixPhase(rng *rand.Rand, d time.Duration, smoke bool, tl *tally, t *tracer) phaseRun {
	rate := mixRPS
	if smoke {
		rate *= 0.2
	}
	env.passes++
	name := fmt.Sprintf("p%d", env.passes)
	return env.runPhase(name, env.schedule(rng, name, rate, d), tl, t)
}

func runMix(cfg config) (*outcome, error) {
	var envs []*mixEnv
	setup, err := timeSetup(cfg.setupReps, func() error {
		env, err := mixSetup()
		if err == nil {
			envs = append(envs, env)
		}
		return err
	})
	for _, env := range envs[:max(len(envs)-1, 0)] {
		env.close()
	}
	if err != nil {
		return nil, err
	}
	env := envs[len(envs)-1]
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	if !cfg.trace {
		heap := startHeapSampler(5 * time.Millisecond)
		run := env.mixPhase(rng, cfg.seconds, cfg.smoke, out.tally, nil)
		peak := heap.peakMB()
		if err := validLag(run); err != nil {
			return nil, err
		}
		mixValues(out.vals, run)
		out.vals["heap_peak_mb"] = peak
		out.vals["setup_s"] = setup
		return out, nil
	}
	g0 := readGoCounters()
	plain := env.mixPhase(rng, cfg.seconds, cfg.smoke, out.tally, nil)
	goLayer(out.vals, g0, readGoCounters(), plain.verified)
	// The traced pass gets a server of its own, so that it starts from
	// the state the untraced pass started from.
	env.close()
	if env, err = mixSetup(); err != nil {
		return nil, err
	}
	out.tracer = newTracer()
	t := out.tracer
	traced := env.mixPhase(rng, cfg.seconds, cfg.smoke, out.tally, t)
	if err := validLag(plain, traced); err != nil {
		return nil, err
	}
	mixLayerValues(out.vals, t, plain, traced)
	out.vals["loadgen.lag_ms_max"] = ms(traced.lagMax)
	// The core, lp and milp layers run inside the server, out of the
	// client's reach: they are measured on a seeded sample of the pool,
	// solved alone after the traffic.
	prof := trace.NewProfile()
	sample := rng.Perm(len(env.pool))[:min(30, len(env.pool))]
	for k, i := range sample {
		pc := env.pool[i]
		inst := core.Instance{Graph: pc.g, Alloc: env.alloc, Device: mixDevice(0)}
		res, _, err := solveLayered(t, -2-k, prof, inst, mixOptions())
		if err != nil {
			out.tally.fail(false, "pool seed %d: %v", pc.entry.Seed, err)
			continue
		}
		if res.Feasible != pc.entry.Base.Feasible || (res.Feasible && res.Solution.Comm != pc.entry.Base.Comm) {
			out.tally.fail(true, "pool seed %d: layered solve disagrees with the recorded verdict", pc.entry.Seed)
			continue
		}
		out.tally.ok()
	}
	layerValues(out.vals, t, prof, len(sample))
	return out, nil
}

// validLag fails a run whose caller fell behind its schedule by more
// than maxLag: it did not send the requests it claims to measure in the
// time it was given.
func validLag(runs ...phaseRun) error {
	for _, r := range runs {
		if r.lagMax > maxLag {
			return fmt.Errorf("service-mix run invalid: the caller ran %v behind schedule (limit %v)", r.lagMax, maxLag)
		}
	}
	return nil
}

// mixValues reports the end-to-end metrics from each request's CPU
// time: its median and p90; verified results, and those within
// latencyLimit, per second of the requests' summed CPU time; and the
// geomean over the fresh distinct requests (no cache hit, no amend).
// One caller is the lowest load there is, so the low-load latencies
// are the latencies.
func mixValues(vals map[string]float64, run phaseRun) {
	lat := run.latencies()
	vals["latency_ms_p50"] = median(lat)
	vals["latency_ms_tail"] = quantile(lat, 0.90)
	vals["low_latency_ms_p50"] = vals["latency_ms_p50"]
	vals["low_latency_ms_tail"] = vals["latency_ms_tail"]
	var busy time.Duration
	var fresh []float64
	for _, r := range run.results {
		busy += r.cpu
		if r.done && !r.info.CacheHit && r.info.Amend == nil {
			fresh = append(fresh, ms(r.cpu))
		}
	}
	if busy > 0 {
		vals["solves_per_s"] = float64(run.verified) / busy.Seconds()
		vals["goodput_rps"] = float64(run.goodput) / busy.Seconds()
	}
	vals["solve_ms_geomean"] = geomean(fresh)
}

// mixLayerValues reports the service and load-generator layers of the
// traced phase, and the tracing overhead against the untraced phase.
// These are wall times, as the server's job records give them.
func mixLayerValues(vals map[string]float64, t *tracer, plain, traced phaseRun) {
	var wait, solve, over []float64
	hits, done := 0, 0
	for _, r := range traced.results {
		if !r.done {
			continue
		}
		done++
		if r.info.CacheHit {
			hits++
		} else {
			wait = append(wait, r.info.QueueWaitMS)
			solve = append(solve, r.info.SolveMS)
		}
		over = append(over, ms(r.wall)-r.info.QueueWaitMS-r.info.SolveMS)
	}
	vals["service.submit_rtt_ms"] = t.mean("service.submit")
	vals["service.queue_wait_ms_p50"] = median(wait)
	vals["service.queue_wait_ms_p99"] = quantile(wait, 0.99)
	vals["service.solve_ms_p50"] = median(solve)
	vals["service.overhead_ms_p50"] = median(over)
	if done > 0 {
		vals["service.cache_hit_frac"] = float64(hits) / float64(done)
	}
	if traced.sent > 0 {
		vals["service.shed_frac"] = float64(traced.shed) / float64(traced.sent)
		vals["loadgen.repeat_frac"] = float64(traced.repeats) / float64(traced.sent)
		vals["loadgen.amend_frac"] = float64(traced.amends) / float64(traced.sent)
	}
	vals["service.delta_warm"] = float64(traced.statsB.Delta.Warm - traced.statsA.Delta.Warm)
	vals["service.delta_reuse"] = float64(traced.statsB.Delta.Reuse - traced.statsA.Delta.Reuse)
	untraced, tracedMS := mean(plain.walls()), mean(traced.walls())
	vals["trace.untraced_ms"] = untraced
	vals["trace.traced_ms"] = tracedMS
	vals["trace.overhead_ms"] = tracedMS - untraced
	vals["trace.layer_sum_ms"] = vals["service.submit_rtt_ms"] + mean(wait) + mean(solve)
}
