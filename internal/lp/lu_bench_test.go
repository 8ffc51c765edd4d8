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
// solve leaves them; RatioDual runs the dual ratio test on pivot rows of
// that basis; Pivot times whole root solves and reports the per-pivot
// cost. BenchmarkDenseReference runs the dense reference sweeps of
// lu_test.go on the same inputs.

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

// savedRow is one scattered pivot row, kept so a benchmark can swap it
// back in without recomputing it.
type savedRow struct {
	r     int
	alpha []float64
	amask []uint64
	apat  []int32
}

// pivotRows scatters the pivot rows of 64 basis positions spread over
// the basis.
func pivotRows(s *Solver) []savedRow {
	rv := s.rev
	var rows []savedRow
	for k := 0; k < 64; k++ {
		r := k * s.m / 64
		s.revPivotRow(r)
		rows = append(rows, savedRow{r: r,
			alpha: append([]float64(nil), rv.alpha...),
			amask: append([]uint64(nil), rv.amask...),
			apat:  append([]int32(nil), rv.apat...)})
	}
	return rows
}

// ratioSink keeps the benchmarked ratio tests' results live.
var ratioSink int

// benchRatioDual runs ratio over the saved pivot rows of the fir16 root
// basis in turn, both leaving directions.
func benchRatioDual(b *testing.B, ratio func(s *Solver, r int, below bool) int) {
	s := fir16Root(b)
	rows := pivotRows(s)
	rv := s.rev
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := rows[i%len(rows)]
		rv.alpha, rv.amask, rv.apat = sr.alpha, sr.amask, sr.apat
		ratioSink = ratio(s, sr.r, (i/len(rows))%2 == 0)
	}
}

// BenchmarkRatioDual is the dual ratio test on a scattered pivot row:
// the entering-column choice of a dual iteration.
func BenchmarkRatioDual(b *testing.B) {
	benchRatioDual(b, func(s *Solver, r int, below bool) int { return s.revRatioDual(r, below) })
}

// BenchmarkDenseReference runs the dense reference sweeps on the inputs
// of BenchmarkFTRAN, BenchmarkBTRAN and BenchmarkRatioDual.
func BenchmarkDenseReference(b *testing.B) {
	b.Run("FTRAN", func(b *testing.B) {
		s := fir16Root(b)
		qs := nonbasicCols(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.rev.lu.refFtranCol(s.rev.col, qs[i%len(qs)], s.n, s.rev.a)
		}
	})
	b.Run("BTRAN", func(b *testing.B) {
		s := fir16Root(b)
		rho := s.rev.rho
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.rev.lu.refBtranUnit(i%s.m, rho)
		}
	})
	b.Run("RatioDual", func(b *testing.B) {
		benchRatioDual(b, func(s *Solver, r int, below bool) int { return refRatioDual(s, below) })
	})
}
