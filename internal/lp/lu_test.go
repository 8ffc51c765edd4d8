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

// Dense reference sweeps: the solves and the update's elimination as a
// sweep over every position runs them, with no masks. The bit-identity
// tests below run them on a twin basisLU that goes through the same
// factorization and updates as the one running the sparse sweeps.

func (f *basisLU) refFtran(x []float64) {
	w := f.w
	copy(w, x)
	for k := 0; k < f.m; k++ {
		i := f.prow[k]
		wk := w[i]
		if math.Abs(wk) <= tinyTol {
			w[i] = 0
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			w[f.lrow[t]] -= f.lval[t] * wk
		}
	}
	for e := range f.rLab {
		w[f.rLab[e]] -= f.rDot(e, w)
	}
	f.refUsolve(w, x)
}

func (f *basisLU) refFtranCol(x []float64, q, n int, a *csc) {
	for _, i := range f.spat {
		f.spike[i] = 0
	}
	f.spat = f.spat[:0]
	w := f.w
	f.nextGen()
	top := f.m
	if q < n {
		for t := a.ptr[q]; t < a.ptr[q+1]; t++ {
			w[a.row[t]] = a.val[t]
			top = f.reach(int(a.row[t]), top)
		}
	} else {
		w[q-n] = 1
		top = f.reach(q-n, top)
	}
	f.lsolvePat(w, top)
	for e := range f.rLab {
		i := f.rLab[e]
		if d := f.rDot(e, w); d != 0 {
			w[i] -= d
			if f.flag[i] != f.gen {
				f.flag[i] = f.gen
				top--
				f.pat[top] = i
			}
		}
	}
	for t := top; t < f.m; t++ {
		i := f.pat[t]
		if math.Abs(w[i]) <= tinyTol {
			w[i] = 0
			continue
		}
		f.spike[i] = w[i]
		f.spat = append(f.spat, i)
	}
	f.spikeOK = true
	f.refUsolve(w, x)
}

func (f *basisLU) refUsolve(w, x []float64) {
	for p := f.m - 1; p >= 0; p-- {
		i := f.uord[p]
		wi := w[i]
		if math.Abs(wi) <= tinyTol {
			w[i] = 0
			x[f.lpos[i]] = 0
			continue
		}
		w[i] = 0
		wi /= f.diag[i]
		x[f.lpos[i]] = wi
		for t := f.ucBeg[i]; t < f.ucBeg[i]+f.ucLen[i]; t++ {
			w[f.ucIdx[t]] -= f.ucVal[t] * wi
		}
	}
}

func (f *basisLU) refBtran(y []float64) {
	for i := 0; i < f.m; i++ {
		f.w[i] = y[f.lpos[i]]
	}
	f.refBsolve(y)
}

func (f *basisLU) refBtranUnit(r int, y []float64) {
	f.w[f.plab[r]] = 1
	f.refBsolve(y)
}

func (f *basisLU) refBsolve(y []float64) {
	m := f.m
	w := f.w
	for p := 0; p < m; p++ {
		i := f.uord[p]
		wi := w[i]
		if math.Abs(wi) <= tinyTol {
			w[i] = 0
			continue
		}
		wi /= f.diag[i]
		w[i] = wi
		for t := f.urBeg[i]; t < f.urBeg[i]+f.urLen[i]; t++ {
			w[f.urIdx[t]] -= f.urVal[t] * wi
		}
	}
	for e := len(f.rLab) - 1; e >= 0; e-- {
		v := w[f.rLab[e]]
		if math.Abs(v) <= tinyTol {
			continue
		}
		for t := f.rStart[e]; t < f.rStart[e+1]; t++ {
			w[f.rIdx[t]] -= f.rVal[t] * v
		}
	}
	for k := m - 1; k >= 0; k-- {
		i := f.prow[k]
		v := w[i]
		if math.Abs(v) <= tinyTol {
			w[i] = 0
			y[i] = 0
			continue
		}
		w[i] = 0
		y[i] = v
		for t := f.ltptr[k]; t < f.ltptr[k+1]; t++ {
			w[f.ltrow[t]] -= f.ltval[t] * v
		}
	}
}

func (f *basisLU) refUpdate(r int, piv float64) (int, bool) {
	if !f.spikeOK {
		return 0, false
	}
	f.spikeOK = false
	m := f.m
	ir := f.plab[r]
	p := int(f.upos[ir])
	rw := f.w
	rb, re := f.urBeg[ir], f.urBeg[ir]+f.urLen[ir]
	for t := rb; t < re; t++ {
		rw[f.urIdx[t]] = f.urVal[t]
	}
	r0 := len(f.rIdx)
	dnew := f.spike[ir]
	if re > rb {
		for pp := p + 1; pp < m; pp++ {
			j := f.uord[pp]
			v := rw[j]
			rw[j] = 0
			if math.Abs(v) <= tinyTol {
				continue
			}
			mj := v / f.diag[j]
			f.rIdx = append(f.rIdx, j)
			f.rVal = append(f.rVal, mj)
			dnew -= mj * f.spike[j]
			for t := f.urBeg[j]; t < f.urBeg[j]+f.urLen[j]; t++ {
				rw[f.urIdx[t]] -= mj * f.urVal[t]
			}
		}
	}
	want := piv * f.diag[ir]
	if ad := math.Abs(dnew); ad < singTol || math.Abs(dnew-want) > updTol*math.Max(ad, math.Abs(want)) {
		f.rIdx, f.rVal = f.rIdx[:r0], f.rVal[:r0]
		return 0, false
	}
	for t := rb; t < re; t++ {
		f.ucRemove(f.urIdx[t], ir)
	}
	f.uNNZ -= int(re - rb)
	f.urLen[ir] = 0
	for t := f.ucBeg[ir]; t < f.ucBeg[ir]+f.ucLen[ir]; t++ {
		f.urRemove(f.ucIdx[t], ir)
	}
	f.uNNZ -= int(f.ucLen[ir])
	f.ucBeg[ir] = int32(len(f.ucIdx))
	for _, i := range f.spat {
		if i == ir {
			continue
		}
		v := f.spike[i]
		f.ucIdx = append(f.ucIdx, i)
		f.ucVal = append(f.ucVal, v)
		f.urAppend(i, ir, v)
	}
	f.ucLen[ir] = int32(len(f.ucIdx)) - f.ucBeg[ir]
	f.uNNZ += int(f.ucLen[ir])
	f.diag[ir] = dnew
	copy(f.uord[p:], f.uord[p+1:])
	f.uord[m-1] = ir
	for pp := p; pp < m; pp++ {
		f.upos[f.uord[pp]] = int32(pp)
	}
	if len(f.rIdx) > r0 {
		f.rLab = append(f.rLab, ir)
		f.rStart = append(f.rStart, int32(len(f.rIdx)))
	}
	f.nUpd++
	return int(f.ucLen[ir]) + len(f.rIdx) - r0, true
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, step int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %s has %d entries, reference %d", step, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d: %s entry %d = %v, dense reference gives %v", step, what, i, got[i], want[i])
		}
	}
}

// samePattern fails unless pat lists each nonzero of x exactly once.
func samePattern(t *testing.T, step int, what string, pat []int32, x []float64) {
	t.Helper()
	nz := 0
	for _, v := range x {
		if v != 0 {
			nz++
		}
	}
	seen := map[int32]bool{}
	for _, i := range pat {
		if x[i] == 0 || seen[i] {
			t.Fatalf("step %d: %s lists entry %d (value %v) wrongly", step, what, i, x[i])
		}
		seen[i] = true
	}
	if len(pat) != nz {
		t.Fatalf("step %d: %s lists %d entries, the result has %d nonzeros", step, what, len(pat), nz)
	}
}

// sweepScratchClear fails unless f's masks and work vector are all zero,
// as every call must leave them.
func sweepScratchClear(t *testing.T, step int, what string, f *basisLU) {
	t.Helper()
	for k := range f.umask {
		if f.umask[k] != 0 || f.kmask[k] != 0 {
			t.Fatalf("step %d: %s left mask word %d set (umask %x, kmask %x)", step, what, k, f.umask[k], f.kmask[k])
		}
	}
	for i, v := range f.w {
		if v != 0 {
			t.Fatalf("step %d: %s left work entry %d = %v", step, what, i, v)
		}
	}
}

// twinLU drives two basisLUs through the same replacements: f with the
// sparse sweeps, g with the dense reference sweeps.
type twinLU struct {
	t       *testing.T
	rng     *rand.Rand
	n       int
	a       *csc
	basis   []int
	inB     []bool
	f, g    *basisLU
	x, xr   []float64
	updates int
}

func newTwinLU(t *testing.T, rng *rand.Rand, n int, a *csc, basis []int) *twinLU {
	m := len(basis)
	h := &twinLU{t: t, rng: rng, n: n, a: a, basis: append([]int(nil), basis...),
		inB: make([]bool, n+m), f: newBasisLU(m), g: newBasisLU(m),
		x: make([]float64, m), xr: make([]float64, m)}
	for _, v := range basis {
		h.inB[v] = true
	}
	h.refactorize()
	return h
}

// refactorize factorizes both twins from the current basis.
func (h *twinLU) refactorize() {
	if !h.f.factorize(h.basis, h.n, h.a) || !h.g.factorize(h.basis, h.n, h.a) {
		h.t.Fatal("basis singular")
	}
}

// randomRHS fills x with a few random entries, or densely.
func (h *twinLU) randomRHS(x []float64) {
	clear(x)
	if h.rng.Intn(4) == 0 {
		for i := range x {
			x[i] = h.rng.NormFloat64()
		}
		return
	}
	for c := 0; c < 1+h.rng.Intn(4); c++ {
		x[h.rng.Intn(len(x))] = h.rng.NormFloat64()
	}
}

// step checks FTRAN and BTRAN of random vectors and a unit BTRAN, then
// makes one replacement on both twins, checking the entering column,
// its spike, the row eta the update stores and the new diagonal.
func (h *twinLU) step(step int) {
	t, f, g := h.t, h.f, h.g
	m := len(h.basis)
	for k := 0; k < 2; k++ {
		h.randomRHS(h.x)
		copy(h.xr, h.x)
		f.ftran(h.x)
		g.refFtran(h.xr)
		sameBits(t, step, "ftran", h.x, h.xr)
		samePattern(t, step, "ftran xpat", f.xpat, h.x)
		sweepScratchClear(t, step, "ftran", f)

		h.randomRHS(h.x)
		copy(h.xr, h.x)
		f.btran(h.x)
		g.refBtran(h.xr)
		sameBits(t, step, "btran", h.x, h.xr)
		samePattern(t, step, "btran ypat", f.ypat, h.x)
		sweepScratchClear(t, step, "btran", f)
	}
	r := h.rng.Intn(m)
	f.btranUnit(r, h.x)
	g.refBtranUnit(r, h.xr)
	sameBits(t, step, "btranUnit", h.x, h.xr)
	samePattern(t, step, "btranUnit ypat", f.ypat, h.x)
	sweepScratchClear(t, step, "btranUnit", f)

	for try := 0; try < 100; try++ {
		q := h.rng.Intn(h.n + m)
		if h.inB[q] {
			continue
		}
		f.ftranCol(h.x, q, h.n, h.a)
		g.refFtranCol(h.xr, q, h.n, h.a)
		sameBits(t, step, "ftranCol", h.x, h.xr)
		samePattern(t, step, "ftranCol xpat", f.xpat, h.x)
		sweepScratchClear(t, step, "ftranCol", f)
		sameBits(t, step, "spike", f.spike, g.spike)
		big := 0.0
		for _, v := range h.x {
			big = math.Max(big, math.Abs(v))
		}
		var cand []int
		for i, v := range h.x {
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
		ir := f.plab[r]
		nf, okf := f.update(r, h.x[r])
		ng, okg := g.refUpdate(r, h.xr[r])
		if !okf || !okg {
			t.Fatalf("step %d: update of position %d refused (sparse %v, reference %v)", step, r, okf, okg)
		}
		sweepScratchClear(t, step, "update", f)
		if nf != ng || len(f.rLab) != len(g.rLab) || len(f.rIdx) != len(g.rIdx) {
			t.Fatalf("step %d: update stored %d entries in %d etas, reference %d in %d",
				step, nf, len(f.rLab), ng, len(g.rLab))
		}
		for k := range f.rIdx {
			if f.rIdx[k] != g.rIdx[k] {
				t.Fatalf("step %d: row eta entry %d labels row %d, reference %d", step, k, f.rIdx[k], g.rIdx[k])
			}
		}
		sameBits(t, step, "row eta multipliers", f.rVal, g.rVal)
		sameBits(t, step, "new diagonal", f.diag[ir:ir+1], g.diag[ir:ir+1])
		h.updates++
		return
	}
	t.Fatal("no admissible replacement found")
}

func TestSparseSweepsMatchDenseRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n := 40+rng.Intn(200), 60+rng.Intn(300)
		a := randCSC(rng, m, n, 5)
		basis := make([]int, m)
		for i := range basis {
			basis[i] = n + i
		}
		h := newTwinLU(t, rng, n, a, basis)
		for step := 0; step < 250; step++ {
			h.step(step)
			if step%60 == 59 {
				// a factorization of the replaced basis has a nontrivial L
				h.refactorize()
			}
		}
		if h.updates != 250 {
			t.Fatalf("seed %d: %d updates, want 250", seed, h.updates)
		}
	}
}

func TestSparseSweepsMatchDenseFir16(t *testing.T) {
	s := fir16Root(t)
	h := newTwinLU(t, rand.New(rand.NewSource(1998)), s.n, s.rev.a, s.basis)
	for step := 0; step < 200; step++ {
		h.step(step)
	}
}

// refRatioDual is revRatioDual as a full ascending sweep over all
// columns.
func refRatioDual(s *Solver, below bool) int {
	rv := s.rev
	q := -1
	bestRatio := math.Inf(1)
	bestPiv := 0.0
	for j := 0; j < s.ntot; j++ {
		if s.vstat[j] == basic || s.lo[j] == s.hi[j] {
			continue
		}
		a := rv.alpha[j]
		if a > -pivTol && a < pivTol {
			continue
		}
		eligible := false
		switch s.vstat[j] {
		case atLower:
			eligible = (below && a < 0) || (!below && a > 0)
		case atUpper:
			eligible = (below && a > 0) || (!below && a < 0)
		case atFree:
			eligible = true
		}
		if !eligible {
			continue
		}
		ratio := math.Abs(s.d[j] / a)
		if s.bland {
			if q < 0 || ratio < bestRatio-tieTol {
				q, bestRatio = j, ratio
			}
			continue
		}
		aa := math.Abs(a)
		switch {
		case ratio < bestRatio-tieTol:
			q, bestRatio, bestPiv = j, ratio, aa
		case ratio < bestRatio+tieTol && aa > bestPiv+tieTol:
			q, bestRatio, bestPiv = j, ratio, aa
		}
	}
	return q
}

// checkPivotRow fails unless alpha equals, bit for bit, the pivot row
// a scatter over all rows in ascending order gives, is zero outside
// apat, and amask holds exactly apat's columns.
func checkPivotRow(t *testing.T, iter int, s *Solver) {
	t.Helper()
	rv := s.rev
	want := make([]float64, s.ntot)
	touched := make([]bool, s.ntot)
	add := func(j int, v float64) {
		if touched[j] {
			want[j] += v
			return
		}
		touched[j], want[j] = true, v
	}
	for i := 0; i < s.m; i++ {
		y := rv.rho[i]
		if y == 0 {
			continue
		}
		add(s.n+i, y)
		for k, j := range s.origRows[i].idx {
			add(j, y*s.origRows[i].val[k])
		}
	}
	sameBits(t, iter, "pivot row", rv.alpha, want)
	in := make([]bool, s.ntot)
	for _, j := range rv.apat {
		if in[j] {
			t.Fatalf("iteration %d: apat lists column %d twice", iter, j)
		}
		in[j] = true
	}
	for j := 0; j < s.ntot; j++ {
		set := rv.amask[j>>6]&(1<<(uint(j)&63)) != 0
		if set != in[j] || (!in[j] && rv.alpha[j] != 0) {
			t.Fatalf("iteration %d: column %d: mask %v, in apat %v, alpha %v", iter, j, set, in[j], rv.alpha[j])
		}
	}
	for k, w := range rv.rmask {
		if w != 0 {
			t.Fatalf("iteration %d: row mask word %d left set", iter, k)
		}
	}
}

// TestRatioDualMatchesFullSweep steps the fir16/N2L3 root solve the way
// revDualSimplex does and checks at every pivot that the pattern-driven
// ratio test picks the column a full ascending sweep picks. The stepped
// solve must take as many pivots to the same objective as Solve.
func TestRatioDualMatchesFullSweep(t *testing.T) {
	s := fir16Solver(t)
	s.reset()
	if !s.dualFeasible() || s.primalFeasible() {
		t.Fatal("fir16 root: expected a dual-feasible, primal-infeasible start")
	}
	pivots := 0
	for iter := 0; ; iter++ {
		if iter > s.maxIter() {
			t.Fatal("iteration limit")
		}
		r, below := s.priceDual()
		if r < 0 {
			break
		}
		s.revPivotRow(r)
		checkPivotRow(t, iter, s)
		q := s.revRatioDual(r, below)
		if want := refRatioDual(s, below); q != want {
			t.Fatalf("iteration %d: ratio test picked column %d, full sweep %d", iter, q, want)
		}
		if q < 0 {
			if s.rev.lu.nUpd > 0 {
				if !s.revFactorize() {
					t.Fatal("refactorization failed")
				}
				continue
			}
			t.Fatal("root LP reported infeasible")
		}
		s.revFtranCol(q)
		if !s.revPivotAgree(r, q) && s.rev.lu.nUpd > 0 {
			if !s.revFactorize() {
				t.Fatal("refactorization failed")
			}
			continue
		}
		b := s.basis[r]
		target := s.hi[b]
		if below {
			target = s.lo[b]
		}
		delta := (s.beta[r] - target) / s.rev.col[r]
		s.Iterations++
		s.noteDegenerate(math.Abs(delta))
		s.revPivot(r, q, delta, !below)
		pivots++
		if s.revRefactorDue() && !s.revFactorize() {
			t.Fatal("refactorization failed")
		}
	}
	ref := fir16Solver(t)
	if st := ref.Solve(); st != StatusOptimal {
		t.Fatalf("root LP status %v", st)
	}
	if pivots != ref.Iterations {
		t.Fatalf("stepped solve took %d pivots, Solve %d", pivots, ref.Iterations)
	}
	if got, want := s.Objective(), ref.Objective(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("stepped solve objective %v, Solve %v", got, want)
	}
}

// TestSparseSweepSteadyStateAllocs pins that the sparse sweeps allocate
// nothing and leave every mask zero: pivot rows, dual ratio tests,
// entering-column FTRANs and the dense-right-hand-side FTRAN/BTRAN of
// beta and dual recomputation, cycled on the fir16 root basis.
func TestSparseSweepSteadyStateAllocs(t *testing.T) {
	s := fir16Root(t)
	nb := nonbasicCols(s)
	lu := s.rev.lu
	cycle := func() {
		for r := 0; r < s.m; r += 5 {
			s.revPivotRow(r)
			s.revRatioDual(r, r%2 == 0)
			s.revFtranCol(nb[r%len(nb)])
			sweepScratchClear(t, r, "pivot row and column", lu)
		}
		s.revRecomputeBeta()
		s.revRestoreDuals()
		sweepScratchClear(t, 0, "beta and dual recomputation", lu)
		for k, w := range s.rev.rmask {
			if w != 0 {
				t.Fatalf("row mask word %d left set", k)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("sparse sweep cycle allocated %v times, want 0", allocs)
	}
}
