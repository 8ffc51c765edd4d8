package milp

import (
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/trace"
)

// dive runs the root diving heuristic: starting from the root-optimal
// LP, it repeatedly fixes one fractional integer column and
// re-optimizes, descending one root-to-leaf path of the tree. An
// integral, feasible end point becomes the first incumbent — found for
// the cost of one dive instead of a whole subtree — which seeds the
// pruning bound for every worker of the search that follows. On the
// paper's models, where the optimum usually has zero communication
// cost, the dive routinely lands on an optimal point and the search
// degenerates to a pure optimality proof.
//
// Two paths are tried from the root, the second only when the first
// finds nothing: the rounding path fixes the brancher's chosen column
// to its nearest integer, and the fix-to-one path fixes the fractional
// integer column with the largest value to one. They fail on different
// models (ewf at L=3 defeats rounding, whose zero fixes on nearly-zero
// scheduling columns starve the LP until a fix is infeasible both
// ways; diffeq at L=2 defeats fix-to-one), so together they seed an
// incumbent on every instance of the MILPBench suite.
//
// The dive is purely heuristic: an infeasible fix is flipped once to
// the opposite bound, and a second failure (or a dominated bound)
// abandons the path. The solver state is snapshotted before and
// restored after each path, so the search starts from the untouched
// root basis. Incumbent installation goes through acceptCandidate,
// which re-validates integrality and feasibility against the
// problem's own row data — the dive cannot install an invalid point.
func (s *solver) dive() {
	var t0 time.Time
	if s.prof != nil {
		t0 = time.Now()
	}
	snap := s.lps.Snapshot()
	found := s.divePath(snap, false) || s.divePath(snap, true)
	if s.prof != nil {
		s.prof.Observe(trace.PhaseDive, time.Since(t0).Nanoseconds())
	}
	if s.sh.tr != nil {
		msg := "dive: no incumbent"
		if found {
			msg = "dive: incumbent found"
		}
		e := trace.Event{Kind: trace.KindDive, Msg: msg}
		if inc := s.sh.incumbent(); !math.IsInf(inc, 0) {
			e.HasIncumbent, e.Incumbent = true, inc
		}
		s.sh.tr.Emit(e)
	}
}

// divePath descends one dive path from the root state and restores
// snap before returning. toOne selects the fix-to-one rule over the
// rounding rule. It reports whether the path improved the incumbent.
func (s *solver) divePath(snap *lp.Snapshot, toOne bool) bool {
	found := false
	x := s.lps.Solution()
	for step := 0; step <= len(s.opt.IntVars); step++ {
		if s.ctx.Err() != nil {
			break
		}
		z := s.lps.Objective()
		if s.bound(z) >= s.sh.incumbent()-1e-9 {
			break // the path is already dominated
		}
		col := -1
		if s.brancher != nil {
			col, _ = s.brancher.Select(x, s.lps.Bound)
		}
		if col < 0 {
			col, _ = s.mostFractional(x)
		}
		if col < 0 {
			// integral over the watched and declared columns: complete
			// auxiliary variables if the model needs it, then install
			xc := x
			if s.opt.Complete != nil {
				if c := s.opt.Complete(x); c != nil {
					xc = c
				}
			}
			before := s.sh.incumbent()
			s.acceptCandidate(xc, math.Inf(-1), false)
			found = s.sh.incumbent() < before-1e-9
			break
		}
		v := 0.0
		if x[col] >= 0.5 {
			v = 1
		}
		if toOne {
			if j := s.largestFractional(x); j >= 0 {
				col, v = j, 1
			}
		}
		lo, hi := s.lps.Bound(col)
		s.lps.SetBound(col, v, v)
		if s.lps.ReOptimize() != lp.StatusOptimal {
			// flip once, then give up
			s.lps.SetBound(col, 1-v, 1-v)
			if s.lps.ReOptimize() != lp.StatusOptimal {
				s.lps.SetBound(col, lo, hi)
				break
			}
		}
		x = s.lps.Solution()
	}
	s.lps.Restore(snap)
	return found
}

// largestFractional picks the fractional declared integer variable
// with the largest value (the lowest index on ties), or -1 when every
// declared integer is integral.
func (s *solver) largestFractional(x []float64) int {
	best := -1
	for j, isInt := range s.isInt {
		if !isInt || x[j] <= intTol || x[j] >= 1-intTol {
			continue
		}
		if best < 0 || x[j] > x[best] {
			best = j
		}
	}
	return best
}
