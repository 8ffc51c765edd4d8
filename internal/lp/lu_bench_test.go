package lp

import (
	"os"
	"testing"
)

// The kernel benchmarks run on the LP relaxation of fir16/N2L3 from the
// MILP benchmark suite (testdata/fir16_n2l3.mps, written by
//
//	go run ./cmd/tpgen -bench fir16 > fir16.tg
//	go run ./cmd/tpsyn -graph fir16.tg -n 2 -l 3 -adders 1 -muls 2 -subs 0 -mps fir16_n2l3.mps
//
// which builds the same model as the suite entry). FTRAN and BTRAN are
// measured on the basis the root LP ends on, factors and updates as the
// solve leaves them; Pivot times whole root solves and reports the
// per-pivot cost.

// fir16Root returns a revised-engine solver holding the root-optimal
// basis of fir16/N2L3.
func fir16Root(tb testing.TB) *Solver {
	tb.Helper()
	s := fir16Solver(tb)
	if st := s.Solve(); st != StatusOptimal {
		tb.Fatalf("root LP status %v", st)
	}
	return s
}

// fir16Solver returns a fresh revised-engine solver for the fir16/N2L3
// relaxation.
func fir16Solver(tb testing.TB) *Solver {
	tb.Helper()
	f, err := os.Open("testdata/fir16_n2l3.mps")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	p, err := ReadMPS(f)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSolverEngine(p, EngineRevised)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// nonbasicCols lists the structural columns outside the basis.
func nonbasicCols(s *Solver) []int {
	var qs []int
	for j := 0; j < s.n; j++ {
		if s.vstat[j] != basic {
			qs = append(qs, j)
		}
	}
	return qs
}

// BenchmarkFTRAN solves B x = a_q for the nonbasic structural columns
// in turn: the entering-column solve of a primal or dual iteration.
func BenchmarkFTRAN(b *testing.B) {
	s := fir16Root(b)
	qs := nonbasicCols(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.revFtranCol(qs[i%len(qs)])
	}
}

// BenchmarkBTRAN solves B^T y = e_r for the basis positions in turn:
// the pivot-row solve of an iteration, without the row scatter.
func BenchmarkBTRAN(b *testing.B) {
	s := fir16Root(b)
	rho := s.rev.rho
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.rev.lu.btranUnit(i%s.m, rho)
	}
}

// BenchmarkPivot solves the root LP from the all-logical basis; ns/op
// is one whole solve and ns/pivot divides it by the pivots taken.
func BenchmarkPivot(b *testing.B) {
	s := fir16Solver(b)
	pivots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Iterations
		if st := s.Solve(); st != StatusOptimal {
			b.Fatalf("root LP status %v", st)
		}
		pivots += s.Iterations - it
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
}
