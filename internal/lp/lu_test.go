package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the Forrest–Tomlin update: a long run of column
// replacements applied without refactorizing must solve exactly like a
// fresh factorization of the same basis.

// randCSC returns an m-row, n-column sparse matrix with about perCol
// nonzeros per column, entries in ±[0.5, 2].
func randCSC(rng *rand.Rand, m, n, perCol int) *csc {
	rows := make([]row, m)
	for j := 0; j < n; j++ {
		seen := map[int]bool{}
		for k := 0; k < 1+rng.Intn(perCol); k++ {
			i := rng.Intn(m)
			if seen[i] {
				continue
			}
			seen[i] = true
			v := 0.5 + 1.5*rng.Float64()
			if rng.Intn(2) == 0 {
				v = -v
			}
			rows[i].idx = append(rows[i].idx, j)
			rows[i].val = append(rows[i].val, v)
		}
	}
	return buildCSC(n, rows)
}

// luHarness drives one basisLU through replacements, keeping the basis
// it represents.
type luHarness struct {
	t     *testing.T
	rng   *rand.Rand
	n     int
	a     *csc
	basis []int
	inB   []bool
	f     *basisLU
	col   []float64
}

func newLUHarness(t *testing.T, rng *rand.Rand, n int, a *csc, basis []int) *luHarness {
	m := len(basis)
	h := &luHarness{t: t, rng: rng, n: n, a: a, basis: append([]int(nil), basis...),
		inB: make([]bool, n+m), f: newBasisLU(m), col: make([]float64, m)}
	for _, v := range basis {
		h.inB[v] = true
	}
	if !h.f.factorize(h.basis, n, a) {
		t.Fatal("initial basis singular")
	}
	return h
}

// replace swaps a random nonbasic column into the basis at a position
// whose pivot is at least a tenth of the column's largest entry (the
// kind of pivot a ratio test accepts), updating the factors in place.
func (h *luHarness) replace() {
	m := len(h.basis)
	for try := 0; try < 100; try++ {
		q := h.rng.Intn(h.n + m)
		if h.inB[q] {
			continue
		}
		h.f.ftranCol(h.col, q, h.n, h.a)
		big := 0.0
		for _, v := range h.col {
			big = math.Max(big, math.Abs(v))
		}
		var cand []int
		for i, v := range h.col {
			if math.Abs(v) >= 0.1*big && math.Abs(v) > 1e-6 {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			continue
		}
		r := cand[h.rng.Intn(len(cand))]
		h.inB[h.basis[r]], h.inB[q] = false, true
		h.basis[r] = q
		if _, ok := h.f.update(r, h.col[r]); !ok {
			h.t.Fatalf("update of position %d refused on a well-conditioned pivot %g", r, h.col[r])
		}
		return
	}
	h.t.Fatal("no admissible replacement found")
}

// check compares FTRAN and BTRAN of random sparse vectors, and of a
// basis column, against a fresh factorization of the same basis.
func (h *luHarness) check(step int) {
	m := len(h.basis)
	fresh := newBasisLU(m)
	if !fresh.factorize(h.basis, h.n, h.a) {
		h.t.Fatalf("step %d: basis singular on refactorization", step)
	}
	got, want := make([]float64, m), make([]float64, m)
	for k := 0; k < 3; k++ {
		for i := range got {
			got[i] = 0
		}
		for c := 0; c < 1+h.rng.Intn(4); c++ {
			got[h.rng.Intn(m)] = h.rng.NormFloat64()
		}
		copy(want, got)
		h.f.ftran(got)
		fresh.ftran(want)
		assertClose(h.t, step, "ftran", got, want)

		for i := range got {
			got[i] = 0
		}
		for c := 0; c < 1+h.rng.Intn(4); c++ {
			got[h.rng.Intn(m)] = h.rng.NormFloat64()
		}
		copy(want, got)
		h.f.btran(got)
		fresh.btran(want)
		assertClose(h.t, step, "btran", got, want)
	}
	r := h.rng.Intn(m)
	h.f.btranUnit(r, got)
	fresh.btranUnit(r, want)
	assertClose(h.t, step, "btranUnit", got, want)
	q := h.rng.Intn(h.n + m)
	h.f.ftranCol(got, q, h.n, h.a)
	fresh.ftranCol(want, q, h.n, h.a)
	assertClose(h.t, step, "ftranCol", got, want)
}

func assertClose(t *testing.T, step int, what string, got, want []float64) {
	t.Helper()
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-8*scale {
			t.Fatalf("step %d: %s entry %d = %g, fresh factorization gives %g", step, what, i, got[i], want[i])
		}
	}
}

func TestLUUpdateMatchesFreshRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n := 40+rng.Intn(60), 60+rng.Intn(90)
		a := randCSC(rng, m, n, 5)
		basis := make([]int, m)
		for i := range basis {
			basis[i] = n + i
		}
		h := newLUHarness(t, rng, n, a, basis)
		for step := 0; step < 250; step++ {
			h.replace()
			h.check(step)
		}
		if h.f.nUpd != 250 {
			t.Fatalf("seed %d: %d updates, want 250", seed, h.f.nUpd)
		}
	}
}

func TestLUUpdateMatchesFreshFir16(t *testing.T) {
	s := fir16Root(t)
	rng := rand.New(rand.NewSource(1998))
	h := newLUHarness(t, rng, s.n, s.rev.a, s.basis)
	for step := 0; step < 200; step++ {
		h.replace()
		if step%10 == 9 {
			h.check(step)
		}
	}
}

// TestLUUpdateRefusesNearZeroDiagonal replaces a basic logical by a
// column equal to another basic column plus 1e-13 in the logical's
// row: the new basis is singular to working precision, so the update's
// new diagonal is about 1e-13. The update must refuse and leave the
// factors exact for the old basis; at the solver level the refused
// pivot forces a refactorization, which falls back to a fresh basis,
// and the re-solve still reaches the true optimum.
func TestLUUpdateRefusesNearZeroDiagonal(t *testing.T) {
	p := &Problem{}
	x0 := p.AddVar("x0", -1, 0, 4)
	x1 := p.AddVar("x1", -1, 0, 4)
	x2 := p.AddVar("x2", -2, 0, 4)
	const eps = 1e-13
	for _, r := range []struct {
		idx []int
		val []float64
		hi  float64
	}{
		{[]int{x0, x1, x2}, []float64{1, 1, 1}, 6},
		{[]int{x0, x1, x2}, []float64{2, 2 + eps, 1}, 9},
		{[]int{x2}, []float64{1}, 3},
	} {
		if err := p.AddRow("", r.idx, r.val, -Inf, r.hi); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSolverEngine(p, EngineRevised)
	if err != nil {
		t.Fatal(err)
	}
	// bring x0 into the basis in place of the first row's logical
	s.revFtranCol(x0)
	s.revPivotRow(0)
	s.revPivot(0, x0, 0, false)
	if s.rev.stale || s.rev.lu.nUpd != 1 {
		t.Fatalf("first update refused (stale=%v, updates=%d)", s.rev.stale, s.rev.lu.nUpd)
	}
	// x1 differs from x0 by eps in row 1: replacing row 1's logical
	// leaves a basis whose new diagonal is about eps
	s.revFtranCol(x1)
	if v := s.rev.col[1]; math.Abs(v) > 1e-12 {
		t.Fatalf("pivot entry %g, want about %g", v, eps)
	}
	before := append([]float64(nil), s.rev.col...)
	s.revPivotRow(1)
	s.revPivot(1, x1, 0, false)
	if !s.rev.stale || !s.revRefactorDue() {
		t.Fatal("near-zero new diagonal accepted: the update must be refused and the basis refactorized")
	}
	if s.rev.lu.nUpd != 1 {
		t.Fatalf("refused update changed the factors: %d updates", s.rev.lu.nUpd)
	}
	// the factors still represent the basis before the refused pivot
	s.rev.lu.ftranCol(s.rev.col, x1, s.n, s.rev.a)
	assertClose(t, 0, "ftranCol after refusal", s.rev.col, before)

	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("re-solve after refused update: status %v", st)
	}
	d, err := NewSolverEngine(p, EngineDense)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Solve(); st != StatusOptimal {
		t.Fatalf("dense solve status %v", st)
	}
	if got, want := s.Objective(), d.Objective(); math.Abs(got-want) > 1e-7 {
		t.Fatalf("objective after refused update %g, dense engine %g", got, want)
	}
}

// TestLUUpdateSteadyStateAllocs pins the zero-allocation property of
// the update path itself: a factorization followed by 100
// update+FTRAN+BTRAN cycles on the fir16 basis allocates nothing once
// the U pools and row etas have grown to the cycle's size.
func TestLUUpdateSteadyStateAllocs(t *testing.T) {
	s := fir16Root(t)
	m := s.m
	f := newBasisLU(m)
	basis := make([]int, m)
	col := make([]float64, m)
	rho := make([]float64, m)
	nb := nonbasicCols(s)
	cycle := func() {
		copy(basis, s.basis)
		if !f.factorize(basis, s.n, s.rev.a) {
			t.Fatal("root basis singular")
		}
		for k := 0; k < 100; k++ {
			q := nb[k%len(nb)]
			f.ftranCol(col, q, s.n, s.rev.a)
			r := -1
			for i, v := range col {
				if math.Abs(v) > 0.5 && (r < 0 || math.Abs(v) > math.Abs(col[r])) {
					r = i
				}
			}
			if r < 0 {
				continue
			}
			f.btranUnit(r, rho)
			basis[r] = q
			if _, ok := f.update(r, col[r]); !ok {
				t.Fatalf("update %d refused", k)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("update cycle allocated %v times, want 0", allocs)
	}
}
