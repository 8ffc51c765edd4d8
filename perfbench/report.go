package main

// Result assembly and the statistics every workload shares: percentiles,
// geomeans, the heap sampler, Go runtime counters and the run stamp.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for the report on stderr. A wrong output also clears
// correct; a refused or errored request only counts as failed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	msgs      []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records a failed operation; wrong marks an incorrect output as
// opposed to an error or a refusal.
func (t *tally) fail(wrong bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// check records err as a wrong output when non-nil, and a success
// otherwise; it reports whether the output was right.
func (t *tally) check(err error) bool {
	if err != nil {
		t.fail(true, "%v", err)
		return false
	}
	t.ok()
	return true
}

// e2eUnits and layerUnits are the metrics a run reports, by name; they
// must match the end_to_end and per_layer lists of BENCHMARK.json (the
// package test checks that they do).
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"solves_per_s":        "1/s",
	"latency_ms_p50":      "ms",
	"latency_ms_tail":     "ms",
	"solve_ms_geomean":    "ms",
	"low_latency_ms_p50":  "ms",
	"low_latency_ms_tail": "ms",
	"goodput_rps":         "1/s",
	"heap_peak_mb":        "MB",
}

var layerUnits = map[string]string{
	"core.build_ms":              "ms",
	"core.rows":                  "count",
	"core.cols":                  "count",
	"core.nnz":                   "count",
	"lp.presolve_ms":             "ms",
	"lp.root_ms":                 "ms",
	"lp.root_pivots":             "count",
	"lp.root_ns_per_pivot":       "ns",
	"lp.ftrans":                  "count",
	"lp.btrans":                  "count",
	"lp.factorizations":          "count",
	"lp.eta_nnz":                 "count",
	"lp.fill_ratio":              "ratio",
	"lp.reopt_ms":                "ms",
	"lp.reopt_pivots":            "count",
	"milp.nodes":                 "count",
	"milp.lp_iterations":         "count",
	"milp.search_ms":             "ms",
	"milp.ns_per_pivot":          "ns",
	"milp.first_incumbent_ms":    "ms",
	"milp.proof_ms":              "ms",
	"milp.phase.node-lp_ms":      "ms",
	"milp.phase.probe_ms":        "ms",
	"milp.phase.pricing_ms":      "ms",
	"milp.phase.ratio-test_ms":   "ms",
	"milp.phase.pivot-update_ms": "ms",
	"milp.phase.refactorize_ms":  "ms",
	"exact.check_ms":             "ms",
	"partition.verify_us":        "us",
	"delta.diff_us":              "us",
	"delta.warm_ms":              "ms",
	"delta.reuse_ms":             "ms",
	"delta.cold_ms":              "ms",
	"delta.warm_frac":            "ratio",
	"delta.reuse_frac":           "ratio",
	"service.submit_rtt_ms":      "ms",
	"service.queue_wait_ms_p50":  "ms",
	"service.queue_wait_ms_p99":  "ms",
	"service.solve_ms_p50":       "ms",
	"service.overhead_ms_p50":    "ms",
	"service.cache_hit_frac":     "ratio",
	"service.shed_frac":          "ratio",
	"service.delta_warm":         "count",
	"service.delta_reuse":        "count",
	"go.alloc_bytes_per_solve":   "bytes",
	"go.gc_pause_ms":             "ms",
	"go.gc_cpu_frac":             "ratio",
	"loadgen.lag_ms_max":         "ms",
	"loadgen.repeat_frac":        "ratio",
	"loadgen.amend_frac":         "ratio",
	"trace.untraced_ms":          "ms",
	"trace.traced_ms":            "ms",
	"trace.overhead_ms":          "ms",
	"trace.layer_sum_ms":         "ms",
}

// fill turns a name→value map into the reported metrics: every name of
// units appears, a layer the workload never enters reads 0, and a value
// that is not finite is an error (JSON cannot carry it).
func fill(units map[string]string, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v := vals[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range vals {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean of positive values; 0 for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time, user and system, that the process has
// used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF and a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetup runs fn reps times and returns the median of the CPU time
// each run took, in seconds: set-up is repeated so that its figure is
// steady enough to bound.
func timeSetup(reps int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		start := cpuTime()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, (cpuTime() - start).Seconds())
	}
	return median(ts), nil
}

// heapSampler records the peak live heap (as marked by the last GC)
// while it runs, reading it at every tick.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler(tick time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(tick)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it and returns the peak in MB.
// A last forced collection measures the heap left at the end, which is
// the peak when the live heap only grows (a service keeping job
// history) and which sampling would see only as of the last GC.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(sample)
	return float64(max(h.peak, sample[0].Value.Uint64())) / (1 << 20)
}

// peakLiveMB returns the median over reps runs of fn of the peak live
// heap, in MB, with the collector running almost continuously
// (GOGC=1) and the live heap read every millisecond. A small heap
// sampled at the default GOGC reads high by whatever was allocated
// while each mark ran, and that swung the peak between about 2 and
// 4 MB from one process to the next; near-continuous collection
// leaves little to allocate during a mark. It runs outside the timed
// phase, which it would slow.
func peakLiveMB(reps int, fn func()) float64 {
	old := debug.SetGCPercent(1)
	defer debug.SetGCPercent(old)
	var peaks []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		h := startHeapSampler(time.Millisecond)
		fn()
		peaks = append(peaks, h.peakMB())
	}
	return median(peaks)
}

// goCounters snapshots the runtime/metrics counters behind the go.*
// layer metrics.
type goCounters struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	pauseSec   float64
}

var goCounterNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readGoCounters() goCounters {
	s := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		pauseSec:   histSum(s[3].Value.Float64Histogram()),
	}
}

// histSum estimates a histogram's total from its bucket midpoints (the
// open-ended buckets count at their finite edge).
func histSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

// goLayer reports the go.* metrics between two snapshots over solves
// completed results.
func goLayer(vals map[string]float64, a, b goCounters, solves int) {
	if solves > 0 {
		vals["go.alloc_bytes_per_solve"] = (b.allocBytes - a.allocBytes) / float64(solves)
	}
	vals["go.gc_pause_ms"] = (b.pauseSec - a.pauseSec) * 1e3
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		vals["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// stamp identifies what a run measured and where.
type stamp struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func newStamp(cfg config) stamp {
	return stamp{
		Commit:     gitCommit("."),
		SourceHash: sourceHash("."),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Trace:      cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; "unknown" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources and module files under root, in
// path order, skipping hidden directories: it names the code measured
// when the checkout carries no git metadata.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
