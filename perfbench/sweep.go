package main

// warm-sweep: device-α ladders walked through one delta.Engine by one
// closed-loop caller. Each ladder runs down (relaxing edits: the
// warm-restart path) and back up (tightening edits: the
// conclusion-reuse path), so delta dispatch and warm dual
// re-optimization do most of the work.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/trace"
)

// sweepLadders names the instances swept, as "<graph>/N<n>L<l>" of the
// MILPBench suite (diffeq at L=3 is the suite's diffeq entry with a
// looser latency).
var sweepLadders = []string{"diffeq/N2L3", "ewf/N2L3", "fir16/N2L2"}

// sweepSteps is one ladder's walk in α percent: down from 1.0 to 0.55,
// then back up.
var sweepSteps = []int{100, 95, 90, 85, 80, 75, 70, 65, 60, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100}

// ladderPoint is one step of a ladder with its recorded cold result.
type ladderPoint struct {
	key, base string // delta engine keys: this point and its predecessor
	label     string // distinct per step, for per-point medians
	inst      core.Instance
	want      verdict
}

type ladder struct {
	name   string
	opt    core.Options
	points []ladderPoint
}

// verdict is a recorded result: feasibility and the optimal comm.
type verdict struct {
	Feasible bool
	Comm     int
}

// sweepInstance returns the named ladder's base instance and options.
func sweepInstance(name string) (core.Instance, core.Options, error) {
	suite, err := experiments.MILPBench()
	if err != nil {
		return core.Instance{}, core.Options{}, err
	}
	for _, e := range suite {
		if e.Name == name {
			return e.Inst, e.Opt, nil
		}
		if name == "diffeq/N2L3" && e.Name == "diffeq/N2L2" {
			opt := e.Opt
			opt.L = 3
			return e.Inst, opt, nil
		}
	}
	return core.Instance{}, core.Options{}, fmt.Errorf("warm-sweep: no suite instance %s", name)
}

// buildLadders builds the ladders; want supplies each point's
// reference verdict (nil leaves it empty).
func buildLadders(want func(ladder string, pct int) (verdict, error)) ([]ladder, error) {
	var out []ladder
	for _, name := range sweepLadders {
		inst, opt, err := sweepInstance(name)
		if err != nil {
			return nil, err
		}
		l := ladder{name: name, opt: opt}
		prev := ""
		for i, pct := range sweepSteps {
			dir := "down"
			if i > 0 && pct > sweepSteps[i-1] {
				dir = "up"
			}
			dev := inst.Device
			dev.Alpha = float64(pct) / 100
			pt := ladderPoint{
				key:   fmt.Sprintf("%s@%d", name, pct),
				base:  prev,
				label: fmt.Sprintf("%s %s %d", name, dir, pct),
				inst:  core.Instance{Graph: inst.Graph, Alloc: inst.Alloc, Device: dev},
			}
			if want != nil {
				if pt.want, err = want(name, pct); err != nil {
					return nil, err
				}
			}
			prev = pt.key
			l.points = append(l.points, pt)
		}
		out = append(out, l)
	}
	return out, nil
}

func recordedVerdict(name string, pct int) (verdict, error) {
	v, ok := sweepTable[fmt.Sprintf("%s@%d", name, pct)]
	if !ok {
		return v, fmt.Errorf("warm-sweep: no recorded verdict for %s at α=%d%%", name, pct)
	}
	return v, nil
}

// checkPoint verifies one ladder result against its recorded verdict
// and, when feasible, with partition.Verify.
func checkPoint(t *tracer, req int, l ladder, pt ladderPoint, res *core.Result) error {
	if !res.Optimal || res.Cancelled {
		return fmt.Errorf("%s: not proved (optimal=%v cancelled=%v)", pt.label, res.Optimal, res.Cancelled)
	}
	if res.Feasible != pt.want.Feasible {
		return fmt.Errorf("%s: feasible=%v, recorded %v", pt.label, res.Feasible, pt.want.Feasible)
	}
	if !res.Feasible {
		return nil
	}
	if res.Solution == nil || res.Solution.Comm != pt.want.Comm {
		return fmt.Errorf("%s: comm differs from recorded %d", pt.label, pt.want.Comm)
	}
	var err error
	t.do(req, "partition.verify", func() {
		err = partition.Verify(pt.inst.Graph, pt.inst.Alloc, pt.inst.Device, res.Solution,
			partition.VerifyOptions{L: l.opt.L})
	})
	if err != nil {
		return fmt.Errorf("%s: %w", pt.label, err)
	}
	return nil
}

// sweepRun is what one timed phase of warm-sweep observed.
type sweepRun struct {
	lat      []sample
	pipeline []float64 // per point, ms: Engine.Solve + checks
	verified int
	busy     time.Duration
	requests int
	paths    map[string]int
}

// measureSweep walks whole passes over the ladders, each pass in a
// seeded order, through one fresh engine until d has passed. With t
// set, each point also gets replicas of its layers (build, presolve,
// root LP, the diff against its predecessor and the warm
// re-optimization of the predecessor's root) outside the timed solve.
func measureSweep(ladders []ladder, rng *rand.Rand, d time.Duration, tl *tally, t *tracer, prof *trace.Profile) sweepRun {
	run := sweepRun{paths: map[string]int{}}
	eng := delta.NewEngine(delta.Config{})
	ctx := context.Background()
	// at least one pass, however short d
	for start := time.Now(); ; {
		for _, li := range rng.Perm(len(ladders)) {
			l := ladders[li]
			var prevP *lp.Problem
			var prevRoot *lp.Solver
			for _, pt := range l.points {
				run.requests++
				req := run.requests
				opt := l.opt
				var rootDur time.Duration
				if t != nil {
					prevP, prevRoot, rootDur = sweepReplicas(t, req, pt, opt, prevP, prevRoot)
					opt.Profile = prof
				}
				p0, c0 := time.Now(), cpuTime()
				var res *core.Result
				var info delta.Info
				var err error
				lat := t.do(req, "delta.solve", func() {
					res, info, err = eng.Solve(ctx, pt.key, pt.base, pt.inst, opt)
				})
				cpu := cpuTime() - c0
				if err != nil {
					tl.fail(false, "%s: %v", pt.label, err)
					continue
				}
				run.paths[info.Path]++
				if t != nil {
					t.add("delta."+info.Path, ms(lat))
					milpCounters(t, res, lat, rootDur)
				}
				ok := tl.check(checkPoint(t, req, l, pt, res))
				run.pipeline = append(run.pipeline, ms(time.Since(p0)))
				run.lat = append(run.lat, sample{key: pt.label, ms: ms(cpu)})
				run.busy += cpu
				if ok {
					run.verified++
				}
			}
		}
		if time.Since(start) >= d {
			return run
		}
	}
}

// sweepReplicas times one point's layers outside the engine: core.Build
// and presolve of the point, its root LP, and — against the previous
// point of the ladder — delta.DiffProblems and the warm re-optimization
// (SetRowBounds and friends, then ReOptimize) of the previous root. It
// returns this point's problem and solved root for the next point.
func sweepReplicas(t *tracer, req int, pt ladderPoint, opt core.Options, prevP *lp.Problem, prevRoot *lp.Solver) (*lp.Problem, *lp.Solver, time.Duration) {
	var m *core.Model
	var err error
	t.do(req, "core.build", func() { m, err = core.Build(pt.inst, opt) })
	if err != nil {
		return nil, nil, 0
	}
	st := m.Stats()
	t.add("core.rows", float64(st.Rows))
	t.add("core.cols", float64(st.Vars))
	t.add("core.nnz", float64(st.NNZ))
	t.do(req, "lp.presolve", func() { m.ApplyPresolve() })
	root, rootDur := rootReplica(t, req, m.P)
	if prevP != nil && prevRoot != nil {
		var d delta.Diff
		t.do(req, "delta.diff", func() { d = delta.DiffProblems(prevP, m.P) })
		if d.Class != delta.ClassStructural {
			ws := prevRoot.Clone()
			t.do(req, "lp.reopt", func() {
				for _, vb := range d.VarBounds {
					ws.SetBound(vb.Col, vb.Lo, vb.Hi)
				}
				for _, rb := range d.RowBounds {
					ws.SetRowBounds(rb.Row, rb.Lo, rb.Hi)
				}
				for _, oc := range d.Obj {
					ws.SetObj(oc.Col, oc.C)
				}
				ws.ReOptimize()
			})
			t.add("lp.reopt_pivots", float64(ws.Iterations))
		}
	}
	return m.P, root, rootDur
}

// sweepSetup builds the ladders against the recorded table and walks
// the first two points of the first (smallest) ladder, checked, through
// a scratch engine, so that lazy set-up is done before timing.
func sweepSetup() ([]ladder, error) {
	ladders, err := buildLadders(recordedVerdict)
	if err != nil {
		return nil, err
	}
	eng := delta.NewEngine(delta.Config{})
	l := ladders[0]
	for _, pt := range l.points[:2] {
		res, _, err := eng.Solve(context.Background(), pt.key, pt.base, pt.inst, l.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.label, err)
		}
		if err := checkPoint(nil, 0, l, pt, res); err != nil {
			return nil, err
		}
	}
	return ladders, nil
}

func runSweep(cfg config) (*outcome, error) {
	var ladders []ladder
	setup, err := timeSetup(cfg.setupReps, func() (err error) {
		ladders, err = sweepSetup()
		if cfg.smoke {
			ladders = ladders[:1]
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	if !cfg.trace {
		run := measureSweep(ladders, rng, cfg.seconds, out.tally, nil, nil)
		closedLoopValues(out.vals, run.lat, run.verified, run.busy, 0.90)
		// one pass over the ladders, untimed
		out.vals["heap_peak_mb"] = peakLiveMB(1, func() { measureSweep(ladders, rng, 0, out.tally, nil, nil) })
		out.vals["setup_s"] = setup
		return out, nil
	}
	g0 := readGoCounters()
	plain := measureSweep(ladders, rng, cfg.seconds, out.tally, nil, nil)
	goLayer(out.vals, g0, readGoCounters(), plain.requests)
	out.tracer = newTracer()
	t := out.tracer
	prof := trace.NewProfile()
	traced := measureSweep(ladders, rng, cfg.seconds, out.tally, t, prof)
	layerValues(out.vals, t, prof, traced.requests)
	out.vals["delta.diff_us"] = t.mean("delta.diff") * 1e3
	for _, path := range []string{delta.PathWarm, delta.PathReuse, delta.PathCold} {
		out.vals["delta."+path+"_ms"] = t.mean("delta." + path)
	}
	if n := float64(traced.requests); n > 0 {
		out.vals["delta.warm_frac"] = float64(traced.paths[delta.PathWarm]) / n
		out.vals["delta.reuse_frac"] = float64(traced.paths[delta.PathReuse]) / n
	}
	untraced, tracedMS := mean(plain.pipeline), mean(traced.pipeline)
	out.vals["trace.untraced_ms"] = untraced
	out.vals["trace.traced_ms"] = tracedMS
	out.vals["trace.overhead_ms"] = tracedMS - untraced
	out.vals["trace.layer_sum_ms"] = (t.sum("delta.solve") + t.sum("partition.verify")) / float64(traced.requests)
	return out, nil
}
