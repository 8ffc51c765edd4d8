package main

// The layered solve used by the traced runs: core.SolveInstance taken
// apart into its public steps, each under a span, with a root-LP replica
// beside them so the LP layer's counters can be read without touching
// program code.

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/trace"
)

// solveLayered does what core.SolveInstance does — core.Build, then
// Model.SolveContext, with presolve called explicitly in between as the
// delta engine does — under spans core.build, lp.presolve and
// core.solve, and replays the root LP on a copy of the presolved
// problem (lp.root, not part of the solve). It records the model size
// and the milp counters of the result, and returns the result and the
// replica's time. prof, when non-nil, is attached as Options.Profile.
func solveLayered(t *tracer, req int, prof *trace.Profile, inst core.Instance, opt core.Options) (res *core.Result, replica time.Duration, err error) {
	opt.Profile = prof
	var m *core.Model
	t.do(req, "core.build", func() { m, err = core.Build(inst, opt) })
	if err != nil {
		return nil, 0, err
	}
	st := m.Stats()
	t.add("core.rows", float64(st.Rows))
	t.add("core.cols", float64(st.Vars))
	t.add("core.nnz", float64(st.NNZ))
	t.do(req, "lp.presolve", func() { m.ApplyPresolve() })
	_, replica = rootReplica(t, req, m.P)
	solve := t.do(req, "core.solve", func() { res, err = m.SolveContext(context.Background()) })
	if err != nil {
		return nil, replica, err
	}
	milpCounters(t, res, solve, replica)
	return res, replica, nil
}

// rootReplica solves the root relaxation of p on a fresh solver and
// records its time (span lp.root) and counters; it returns the solved
// solver and the root time, or nil and 0 when p has no columns.
func rootReplica(t *tracer, req int, p *lp.Problem) (*lp.Solver, time.Duration) {
	s, err := lp.NewSolver(p.Clone())
	if err != nil {
		return nil, 0
	}
	d := t.do(req, "lp.root", func() { s.Solve() })
	c := s.Counters
	t.add("lp.root_pivots", float64(s.Iterations))
	t.add("lp.ftrans", float64(c.FTRANs))
	t.add("lp.btrans", float64(c.BTRANs))
	t.add("lp.factorizations", float64(c.Factorizations))
	t.add("lp.eta_nnz", float64(c.EtaNNZ))
	if c.BasisNNZ > 0 {
		t.add("lp.fill_ratio", float64(c.FactorNNZ)/float64(c.BasisNNZ))
	}
	return s, d
}

// milpCounters records the search figures of one solve: work counts,
// the search time beyond the root (solve minus the root replica) and
// the time to first incumbent and to proof.
func milpCounters(t *tracer, res *core.Result, solve, root time.Duration) {
	t.add("milp.nodes", float64(res.Nodes))
	t.add("milp.lp_iterations", float64(res.LPIterations))
	t.add("milp.first_incumbent_ms", ms(res.TimeToFirstIncumbent))
	t.add("milp.proof_ms", ms(res.TimeToProof))
	if res.LPIterations > 0 {
		search := solve - root
		if search < 0 {
			search = 0
		}
		t.add("milp.search_ms", ms(search))
		t.add("milp.pivoted_ms", ms(solve))
		t.add("milp.pivots", float64(res.LPIterations))
	}
}

// profiledPhases are the trace.Profile phases reported as
// milp.phase.<name>_ms, per solve.
var profiledPhases = []trace.Phase{
	trace.PhaseNodeLP, trace.PhaseProbe, trace.PhasePricing,
	trace.PhaseRatio, trace.PhaseUpdate, trace.PhaseRefactorize,
}

// layerValues turns the traced observations into the per-layer metrics
// of the core, lp, milp, exact and partition layers. solves is the
// number of solves the profile covered.
func layerValues(vals map[string]float64, t *tracer, prof *trace.Profile, solves int) {
	for _, name := range []string{"core.build", "lp.presolve", "lp.root", "lp.reopt", "exact.check"} {
		vals[name+"_ms"] = t.mean(name)
	}
	for _, name := range []string{
		"core.rows", "core.cols", "core.nnz",
		"lp.root_pivots", "lp.ftrans", "lp.btrans", "lp.factorizations", "lp.eta_nnz", "lp.fill_ratio",
		"lp.reopt_pivots",
		"milp.nodes", "milp.lp_iterations", "milp.search_ms", "milp.first_incumbent_ms", "milp.proof_ms",
	} {
		vals[name] = t.mean(name)
	}
	vals["partition.verify_us"] = t.mean("partition.verify") * 1e3
	if p := t.sum("lp.root_pivots"); p > 0 {
		vals["lp.root_ns_per_pivot"] = t.sum("lp.root") * 1e6 / p
	}
	if p := t.sum("milp.pivots"); p > 0 {
		vals["milp.ns_per_pivot"] = t.sum("milp.pivoted_ms") * 1e6 / p
	}
	if solves > 0 {
		for _, ph := range profiledPhases {
			vals["milp.phase."+ph.String()+"_ms"] = float64(prof.Hist(ph).SumNS()) / 1e6 / float64(solves)
		}
	}
}
