package main

// cold-suite: the five experiments.MILPBench instances solved from
// scratch through core.SolveInstance, round-robin by one closed-loop
// caller, with exact certification on. Time goes to the LP and the tree
// search; there is no service or delta work.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/trace"
)

// coldOptima are the proved optimal communication costs of the suite,
// recorded from certified solves.
var coldOptima = map[string]int{
	"diffeq/N2L2": 3,
	"ewf/N2L2":    0,
	"fir16/N2L2":  0,
	"ewf/N2L3":    0,
	"fir16/N2L3":  0,
}

type coldCase struct {
	name string
	inst core.Instance
	opt  core.Options
	comm int
}

// coldCases loads the suite (its two easiest instances for a smoke
// run) with certification on, and solves those two once, checked, so
// that lazy set-up is done before timing.
func coldCases(smoke bool) ([]coldCase, error) {
	suite, err := experiments.MILPBench()
	if err != nil {
		return nil, err
	}
	if smoke {
		suite = suite[:2]
	}
	var cases []coldCase
	for _, e := range suite {
		comm, ok := coldOptima[e.Name]
		if !ok {
			return nil, fmt.Errorf("cold-suite: no recorded optimum for %s", e.Name)
		}
		opt := e.Opt
		opt.Certify = true
		cases = append(cases, coldCase{name: e.Name, inst: e.Inst, opt: opt, comm: comm})
	}
	for _, c := range cases[:2] {
		res, err := core.SolveInstance(c.inst, c.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if err := c.check(nil, 0, res); err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// check verifies one result: a proved optimum whose certificate replays
// valid (exact.check), whose partition passes partition.Verify
// (partition.verify) and whose comm is the recorded optimum.
func (c coldCase) check(t *tracer, req int, res *core.Result) error {
	if !res.Feasible || !res.Optimal || res.Cancelled || res.Solution == nil {
		return fmt.Errorf("%s: not a proved optimum (feasible=%v optimal=%v cancelled=%v)",
			c.name, res.Feasible, res.Optimal, res.Cancelled)
	}
	cert := res.Certificate
	if cert == nil {
		return fmt.Errorf("%s: no certificate", c.name)
	}
	t.do(req, "exact.check", cert.Check)
	if err := cert.Err(); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	var err error
	t.do(req, "partition.verify", func() {
		err = partition.Verify(c.inst.Graph, c.inst.Alloc, c.inst.Device, res.Solution,
			partition.VerifyOptions{L: c.opt.L})
	})
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if res.Solution.Comm != c.comm {
		return fmt.Errorf("%s: comm %d, recorded optimum %d", c.name, res.Solution.Comm, c.comm)
	}
	return nil
}

// coldRun is what one timed phase of cold-suite observed.
type coldRun struct {
	lat      []sample  // per solve: SolveInstance's CPU time (wall time when traced)
	pipeline []float64 // per solve, ms: solve + certificate replay + verify
	verified int
	busy     time.Duration
	requests int
}

// measureCold runs whole rounds, each a seeded permutation of the
// suite, until d has passed. With t set, every solve is taken apart by
// solveLayered under spans and prof receives its phase profile.
func measureCold(cases []coldCase, rng *rand.Rand, d time.Duration, tl *tally, t *tracer, prof *trace.Profile) coldRun {
	var run coldRun
	// at least one round, however short d
	for start := time.Now(); ; {
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			run.requests++
			p0 := time.Now()
			var res *core.Result
			var err error
			var lat, replica time.Duration
			if t == nil {
				s0 := cpuTime()
				res, err = core.SolveInstance(c.inst, c.opt)
				lat = cpuTime() - s0
			} else {
				res, replica, err = solveLayered(t, run.requests, prof, c.inst, c.opt)
				lat = time.Since(p0) - replica
			}
			if err != nil {
				tl.fail(false, "%s: %v", c.name, err)
				continue
			}
			ok := tl.check(c.check(t, run.requests, res))
			run.pipeline = append(run.pipeline, ms(time.Since(p0)-replica))
			run.lat = append(run.lat, sample{key: c.name, ms: ms(lat)})
			run.busy += lat
			if ok {
				run.verified++
			}
		}
		if time.Since(start) >= d {
			return run
		}
	}
}

func runCold(cfg config) (*outcome, error) {
	var cases []coldCase
	setup, err := timeSetup(cfg.setupReps, func() (err error) {
		cases, err = coldCases(cfg.smoke)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	if !cfg.trace {
		run := measureCold(cases, rng, cfg.seconds, out.tally, nil, nil)
		closedLoopValues(out.vals, run.lat, run.verified, run.busy, 0.90)
		// one round of the suite, untimed, nine times: the peak moves
		// by a third from one round to the next
		out.vals["heap_peak_mb"] = peakLiveMB(9, func() { measureCold(cases, rng, 0, out.tally, nil, nil) })
		out.vals["setup_s"] = setup
		return out, nil
	}
	g0 := readGoCounters()
	plain := measureCold(cases, rng, cfg.seconds, out.tally, nil, nil)
	goLayer(out.vals, g0, readGoCounters(), plain.requests)
	out.tracer = newTracer()
	prof := trace.NewProfile()
	traced := measureCold(cases, rng, cfg.seconds, out.tally, out.tracer, prof)
	layerValues(out.vals, out.tracer, prof, traced.requests)
	t := out.tracer
	untraced, tracedMS := mean(plain.pipeline), mean(traced.pipeline)
	out.vals["trace.untraced_ms"] = untraced
	out.vals["trace.traced_ms"] = tracedMS
	out.vals["trace.overhead_ms"] = tracedMS - untraced
	sum := 0.0
	for _, name := range []string{"core.build", "lp.presolve", "core.solve", "exact.check", "partition.verify"} {
		sum += t.sum(name)
	}
	out.vals["trace.layer_sum_ms"] = sum / float64(traced.requests)
	return out, nil
}
