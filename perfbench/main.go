// Command perfbench is the repository's benchmark. It runs one named
// workload against the packages as their users call them, checks every
// output, and prints one JSON result line:
//
//	perfbench --workload cold-suite --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	cold-suite   core.SolveInstance on the experiments.MILPBench suite
//	warm-sweep   device-α ladders chained through one delta.Engine
//	service-mix  paced HTTP traffic against service.NewHandler
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs once untraced and once traced, and the
// result carries the per-layer metrics and the tracing overhead; the
// spans are written to --spans as NDJSON.
//
// A maintenance mode re-derives recorded constants: --regen rewrites
// tables_gen.go (the service-mix instance pool and the warm-sweep
// reference table).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// smoke trims cold-suite and warm-sweep to their two smallest
	// instances and one ladder, and service-mix to a fifth of its rate,
	// for a fast check of the harness.
	smoke bool
}

// outcome is what a workload run produced: metric values by name, the
// attempted/failed tally and, for a traced run, the spans.
type outcome struct {
	vals   map[string]float64
	tally  *tally
	tracer *tracer
}

func newOutcome() *outcome {
	return &outcome{vals: map[string]float64{}, tally: &tally{}}
}

var workloads = map[string]func(config) (*outcome, error){
	"cold-suite":  runCold,
	"warm-sweep":  runSweep,
	"service-mix": runMix,
}

// sample is one timed request, keyed by the instance it solved.
type sample struct {
	key string
	ms  float64
}

// closedLoopValues reports the end-to-end metrics of a one-caller
// closed loop from each solve's CPU time: the caller runs one solve at
// a time, so that is the solve's latency less the time the host gave
// to others. One caller is the lowest load such a workload has, so the
// low-load latencies are its latencies; and no latency limit applies,
// so goodput is its throughput.
func closedLoopValues(vals map[string]float64, lat []sample, verified int, busy time.Duration, tailQ float64) {
	all := make([]float64, len(lat))
	byKey := map[string][]float64{}
	for i, s := range lat {
		all[i] = s.ms
		byKey[s.key] = append(byKey[s.key], s.ms)
	}
	if busy > 0 {
		vals["solves_per_s"] = float64(verified) / busy.Seconds()
	}
	vals["goodput_rps"] = vals["solves_per_s"]
	vals["latency_ms_p50"] = median(all)
	vals["latency_ms_tail"] = quantile(all, tailQ)
	vals["low_latency_ms_p50"] = vals["latency_ms_p50"]
	vals["low_latency_ms_tail"] = vals["latency_ms_tail"]
	var meds []float64
	for _, xs := range byKey {
		meds = append(meds, median(xs))
	}
	sort.Float64s(meds) // a fixed summation order
	vals["solve_ms_geomean"] = geomean(meds)
}

func run(cfg config) (result, stamp, error) {
	st := newStamp(cfg)
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, st, fmt.Errorf("unknown workload %q (want cold-suite, warm-sweep or service-mix)", cfg.workload)
	}
	out, err := fn(cfg)
	if err != nil {
		return result{}, st, err
	}
	units := e2eUnits
	if cfg.trace {
		units = layerUnits
		if out.tracer != nil && cfg.spansDir != "" {
			path, err := out.tracer.write(cfg.spansDir, st)
			if err != nil {
				return result{}, st, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintln(os.Stderr, "spans:", path)
		}
	}
	m, err := fill(units, out.vals)
	if err != nil {
		return result{}, st, err
	}
	tl := out.tally
	for _, msg := range tl.msgs {
		fmt.Fprintln(os.Stderr, "failure:", msg)
	}
	return result{
		Correct:   tl.wrong == 0 && tl.attempted > 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   m,
	}, st, nil
}

func main() {
	workload := flag.String("workload", "", "cold-suite, warm-sweep or service-mix")
	seed := flag.Int64("seed", 1, "workload seed: orders fixed instances, draws generated ones")
	seconds := flag.Int("seconds", 30, "length of each measured phase")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from an untraced and a traced run")
	spans := flag.String("spans", ".bench_build/spans", "directory for the traced run's spans")
	regen := flag.String("regen", "", "rewrite the generated tables to this file and exit")
	smoke := flag.Bool("smoke", false, "fewer instances, for a quick check that the harness works")
	flag.Parse()

	switch {
	case *regen != "":
		if err := writeTables(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *traced == 1,
		spansDir:  *spans,
		setupReps: 5,
		smoke:     *smoke,
	}
	res, st, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stampLine, _ := json.Marshal(map[string]stamp{"stamp": st})
	fmt.Println(string(stampLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
