package lp

import (
	"math"
	"math/bits"
)

// This file is the linear-algebra kernel of the revised simplex engine:
// a sparse LU factorization of the basis (Gilbert–Peierls left-looking
// with partial pivoting), a Forrest–Tomlin update of U per pivot, and
// the FTRAN/BTRAN solves every revised iteration is built from.
//
// Notation. The basis B has one column per row position i: the column
// of basis[i] in [A | I] (structural columns come from the CSC copy of
// A, the logical column of row i is e_i). The factorization computes
//
//	B·Q = P^{-1}·L·U
//
// with a row permutation P chosen by partial pivoting (pinv/prow) and
// a column order Q chosen before factorizing (cord: columns sorted by
// nonzero count, a cheap Markowitz-style fill heuristic). L keeps the
// original row indices of the rows it eliminates; U is labelled by
// rows too: "U column i" is the basis column whose diagonal sits in row
// i, and "U row i" the row of that diagonal. U is upper triangular in
// a triangular order uord that starts as the pivot order.
//
// Forrest–Tomlin update (Forrest & Tomlin 1972; Suhl & Suhl 1990). When
// basis position r, U column i_r, is replaced by a_q, L^{-1}·P·B'·Q is
// U with column i_r replaced by the spike s = R_k···R_1·L^{-1}·a_q. The
// update stores s as U column i_r, moves i_r to the end of the
// triangular order, and removes row i_r's off-diagonal entries by
// subtracting multiples of the rows after it: one row eta
// R = I − e_{i_r}·m^T. The new diagonal is s_{i_r} − m^T s. So
//
//	FTRAN:  B^{-1}b = Q·U^{-1}·R_k···R_1·L^{-1}·P·b
//	BTRAN:  B^{-T}y = P^T·L^{-T}·R_1^T···R_k^T·U^{-T}·Q^T·y
//
// and the update stores only the spike (1–3% dense on the suite's
// bases) and the row eta, where a product-form eta would store the
// whole FTRAN'd column.
//
// Sparse sweeps. The vectors the solves work on are mostly sparse (on
// the fir16/N2L3 root basis a BTRAN'd unit vector averages 12% of the
// rows), so the triangular sweeps visit only the nonzeros, in exactly
// the order a dense sweep over all m positions would: the arithmetic
// matches the dense sweep bit for bit. Each sweep keeps a bitset over
// its index space (umask by position in the triangular order, kmask by
// pivot order): the caller seeds it with the vector's nonzeros, a
// scatter into a zero entry marks it (a nonzero entry is marked
// already), and the sweep takes the lowest (ascending) or highest
// (descending) set bit of the current word, clearing it. A scatter
// only writes entries further along the sweep, so re-reading the
// current word after each entry sees them in time. A sweep costs
// O(m/64 + entries touched) and leaves its mask all zero.
// Entries at or below tinyTol are skipped as zeros throughout.

// singTol is the smallest pivot magnitude the factorization accepts; a
// basis producing nothing larger is treated as numerically singular and
// the caller falls back to a fresh all-logical basis. An update whose
// new diagonal falls below it is refused.
const singTol = 1e-11

// updTol is the relative disagreement between an update's new diagonal
// and the FTRAN'd pivot times the old diagonal (the two are equal in
// exact arithmetic: both are det(B')/det(B) times the old diagonal)
// beyond which the update is refused and the basis refactorized.
const updTol = 1e-9

// tinyTol is the magnitude at or below which the solves and the update
// treat an entry as zero. Entries that small are cancellation residue
// (the factors' entries are O(1)); carrying them would only spread
// fill through the spikes and row etas.
const tinyTol = 1e-14

// csc is a compressed-sparse-column copy of the structural matrix A,
// built once per solver. Immutable after construction, shared by
// clones.
type csc struct {
	ptr []int32 // n+1 column pointers
	row []int32 // row indices, ascending within a column
	val []float64
}

// buildCSC transposes the row-major origRows into column form.
func buildCSC(n int, rows []row) *csc {
	c := &csc{ptr: make([]int32, n+1)}
	nnz := 0
	for i := range rows {
		nnz += len(rows[i].idx)
		for _, j := range rows[i].idx {
			c.ptr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		c.ptr[j+1] += c.ptr[j]
	}
	c.row = make([]int32, nnz)
	c.val = make([]float64, nnz)
	next := make([]int32, n)
	for j := 0; j < n; j++ {
		next[j] = c.ptr[j]
	}
	for i := range rows {
		r := rows[i]
		for k, j := range r.idx {
			t := next[j]
			c.row[t] = int32(i)
			c.val[t] = r.val[k]
			next[j] = t + 1
		}
	}
	return c
}

// colNNZ returns the nonzero count of column j.
func (c *csc) colNNZ(j int) int { return int(c.ptr[j+1] - c.ptr[j]) }

// basisLU holds the factorized basis representation: L with its
// transpose, U in column and row form, and the row etas of the updates
// applied since the last factorization. All slices are grow-only
// scratch — refactorization reslices to length zero and appends into
// retained capacity, and U's pools only ever append (entries an update
// removes are dropped from their segment; the space they held is
// reclaimed at the next factorization), so the warm solve cycle
// allocates nothing once buffers have grown to their steady-state sizes.
type basisLU struct {
	m int

	// Column order and row permutation of the current factorization.
	cord []int32 // cord[k] = basis position factored k-th
	pinv []int32 // pinv[origRow] = pivot order, -1 while unpivoted
	prow []int32 // prow[k] = origRow pivoted k-th (inverse of pinv)
	lpos []int32 // lpos[i] = basis position of U column i
	plab []int32 // plab[pos] = U label of basis position pos (inverse of lpos)

	// L: unit lower triangular, CSC by pivot order, implicit diagonal,
	// original row indices. Its transpose (row k of L by pivot order,
	// entries pointing at the original rows of the columns) lets BTRAN
	// run as a backward scatter with value skipping, like FTRAN.
	lptr  []int32
	lrow  []int32
	lval  []float64
	ltptr []int32
	ltrow []int32
	ltval []float64

	// U, labelled by rows, diagonal split out. uord is the triangular
	// order (uord[p] = label at position p), upos its inverse. Column i
	// is ucIdx/ucVal[ucBeg[i]:ucBeg[i]+ucLen[i]] (row labels); row i is
	// urIdx/urVal[urBeg[i]:urBeg[i]+urLen[i]] (column labels) with room
	// for urCap[i] entries before it must move to the end of the pool.
	diag  []float64
	uord  []int32
	upos  []int32
	ucBeg []int32
	ucLen []int32
	ucIdx []int32
	ucVal []float64
	urBeg []int32
	urLen []int32
	urCap []int32
	urIdx []int32
	urVal []float64

	// Row etas, one per update that had entries to eliminate: eta e
	// subtracts Σ rVal[t]·x[rIdx[t]] over rStart[e] ≤ t < rStart[e+1]
	// from x[rLab[e]].
	rLab   []int32
	rStart []int32
	rIdx   []int32
	rVal   []float64

	// spike is L^{-1}·a_q after the row etas, saved by the last
	// ftranCol: dense by row label, nonzero on spat. spikeOK is false
	// once the factors it was computed against have changed.
	spike   []float64
	spat    []int32
	spikeOK bool

	nUpd int // updates applied since the factorization
	// uNNZ counts U's live nonzeros including the diagonal, uNNZ0 the
	// count the factorization produced.
	uNNZ, uNNZ0 int

	// luNNZ is nnz(L)+nnz(U) including diagonals; basisNNZ the nonzero
	// count of the factorized basis columns (fill-in = luNNZ/basisNNZ).
	luNNZ    int
	basisNNZ int

	// xpat lists the basis positions of the last FTRAN result's
	// nonzeros, ypat the rows of the last BTRAN result's nonzeros.
	xpat []int32
	ypat []int32

	// scratch
	w     []float64 // dense work vector, all zero between calls
	umask []uint64  // sweep mask by triangular position, all zero between calls
	kmask []uint64  // sweep mask by pivot order, all zero between calls
	pat   []int32   // reach pattern, filled top..m-1
	stk   []int32   // DFS node stack
	pstk  []int32   // DFS per-level child cursor
	flag  []int32   // DFS visited marks, stamped with gen
	gen   int32
	cnt   []int32 // counting-sort / transpose scratch
}

func newBasisLU(m int) *basisLU {
	return &basisLU{
		m:     m,
		cord:  make([]int32, m),
		pinv:  make([]int32, m),
		prow:  make([]int32, m),
		lpos:  make([]int32, m),
		plab:  make([]int32, m),
		diag:  make([]float64, m),
		uord:  make([]int32, m),
		upos:  make([]int32, m),
		ucBeg: make([]int32, m),
		ucLen: make([]int32, m),
		urBeg: make([]int32, m),
		urLen: make([]int32, m),
		urCap: make([]int32, m),
		spike: make([]float64, m),
		xpat:  make([]int32, 0, m),
		ypat:  make([]int32, 0, m),
		w:     make([]float64, m),
		umask: make([]uint64, (m+63)/64),
		kmask: make([]uint64, (m+63)/64),
		pat:   make([]int32, m),
		stk:   make([]int32, m),
		pstk:  make([]int32, m),
		flag:  make([]int32, m),
		cnt:   make([]int32, m+2),
	}
}

// factorize rebuilds L/U from the basis columns, dropping the updates.
// It reports false when the basis is numerically singular (the caller
// resets the basis).
func (f *basisLU) factorize(basis []int, n int, a *csc) bool {
	m := f.m
	f.spikeOK = false
	// column order: nonzero count ascending, position ascending on ties
	// (stable counting sort — deterministic and allocation-free).
	cnt := f.cnt[:m+2]
	for i := range cnt {
		cnt[i] = 0
	}
	colNNZ := func(pos int) int {
		if v := basis[pos]; v < n {
			return a.colNNZ(v)
		}
		return 1
	}
	for pos := 0; pos < m; pos++ {
		cnt[colNNZ(pos)+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for pos := 0; pos < m; pos++ {
		k := colNNZ(pos)
		f.cord[cnt[k]] = int32(pos)
		cnt[k]++
	}

	for i := 0; i < m; i++ {
		f.pinv[i] = -1
		f.flag[i] = 0
	}
	f.gen = 0
	f.lptr = append(f.lptr[:0], 0)
	f.lrow = f.lrow[:0]
	f.lval = f.lval[:0]
	f.ucIdx = f.ucIdx[:0]
	f.ucVal = f.ucVal[:0]
	x := f.w
	basisNNZ := 0

	for k := 0; k < m; k++ {
		pos := int(f.cord[k])
		v := basis[pos]
		// gather column v of [A|I] and solve x = L^{-1} (column)
		f.gen++
		top := m
		if v < n {
			for t := a.ptr[v]; t < a.ptr[v+1]; t++ {
				top = f.reach(int(a.row[t]), top)
			}
			for t := a.ptr[v]; t < a.ptr[v+1]; t++ {
				x[a.row[t]] = a.val[t]
			}
			basisNNZ += a.colNNZ(v)
		} else {
			top = f.reach(v-n, top)
			x[v-n] = 1
			basisNNZ++
		}
		f.lsolvePat(x, top)
		// partial pivoting: largest magnitude among unpivoted rows,
		// ties broken toward the lowest original row (determinism)
		pivRow, pivAbs := int32(-1), 0.0
		for t := top; t < m; t++ {
			i := f.pat[t]
			if f.pinv[i] >= 0 {
				continue
			}
			if av := math.Abs(x[i]); av > pivAbs || (av == pivAbs && pivRow >= 0 && i < pivRow) {
				pivAbs, pivRow = av, i
			}
		}
		if pivRow < 0 || pivAbs < singTol {
			for t := top; t < m; t++ {
				x[f.pat[t]] = 0
			}
			return false
		}
		xp := x[pivRow]
		f.pinv[pivRow] = int32(k)
		f.prow[k] = pivRow
		f.diag[pivRow] = xp
		f.ucBeg[pivRow] = int32(len(f.ucIdx))
		for t := top; t < m; t++ {
			i := f.pat[t]
			xi := x[i]
			x[i] = 0
			if math.Abs(xi) <= tinyTol || i == pivRow {
				continue
			}
			if ki := f.pinv[i]; ki >= 0 && ki < int32(k) {
				f.ucIdx = append(f.ucIdx, i)
				f.ucVal = append(f.ucVal, xi)
			} else if ki < 0 {
				f.lrow = append(f.lrow, i)
				f.lval = append(f.lval, xi/xp)
			}
		}
		f.ucLen[pivRow] = int32(len(f.ucIdx)) - f.ucBeg[pivRow]
		f.lptr = append(f.lptr, int32(len(f.lrow)))
	}
	for k := 0; k < m; k++ {
		i := f.prow[k]
		f.uord[k] = i
		f.upos[i] = int32(k)
		f.lpos[i] = f.cord[k]
		f.plab[f.cord[k]] = i
	}
	f.uNNZ = len(f.ucIdx) + m
	f.uNNZ0 = f.uNNZ
	f.luNNZ = len(f.lrow) + f.uNNZ
	f.basisNNZ = basisNNZ
	f.buildLT()
	f.buildURows()
	f.rLab = f.rLab[:0]
	f.rStart = append(f.rStart[:0], 0)
	f.rIdx = f.rIdx[:0]
	f.rVal = f.rVal[:0]
	f.nUpd = 0
	return true
}

// lsolvePat applies L^{-1} to x in place over the reach pattern
// pat[top:], which lists the rows x can touch in topological order:
// row i scatters its completed L column into its dependents. Rows not
// yet pivoted (during factorize) have no column and are skipped.
func (f *basisLU) lsolvePat(x []float64, top int) {
	for t := top; t < f.m; t++ {
		i := f.pat[t]
		ki := f.pinv[i]
		if ki < 0 {
			continue
		}
		xi := x[i]
		if math.Abs(xi) <= tinyTol {
			continue
		}
		for u := f.lptr[ki]; u < f.lptr[ki+1]; u++ {
			x[f.lrow[u]] -= f.lval[u] * xi
		}
	}
}

// nextGen starts a new DFS generation, clearing the marks on overflow.
func (f *basisLU) nextGen() {
	if f.gen == math.MaxInt32 {
		for i := range f.flag {
			f.flag[i] = 0
		}
		f.gen = 0
	}
	f.gen++
}

// reach pushes the rows reachable from origRow i (through completed L
// columns) onto pat[top-1:...] in topological order; returns the new
// top. Nonrecursive depth-first search with a resumable child cursor,
// the cs_dfs scheme.
func (f *basisLU) reach(i int, top int) int {
	if f.flag[i] == f.gen {
		return top
	}
	head := 0
	f.stk[0] = int32(i)
	for head >= 0 {
		i := f.stk[head]
		if f.flag[i] != f.gen {
			f.flag[i] = f.gen
			if k := f.pinv[i]; k >= 0 {
				f.pstk[head] = f.lptr[k]
			} else {
				f.pstk[head] = 0
			}
		}
		descended := false
		if k := f.pinv[i]; k >= 0 {
			for t := f.pstk[head]; t < f.lptr[k+1]; t++ {
				c := f.lrow[t]
				if f.flag[c] != f.gen {
					f.pstk[head] = t + 1
					head++
					f.stk[head] = c
					descended = true
					break
				}
			}
		}
		if !descended {
			top--
			f.pat[top] = i
			head--
		}
	}
	return top
}

// buildLT rebuilds the transpose of L used by BTRAN: for pivot k, the
// entries L[prow[k], k'] as (prow[k'], value).
func (f *basisLU) buildLT() {
	m := f.m
	cnt := f.cnt[:m+1]
	f.ltrow = grow32(f.ltrow, len(f.lrow))
	f.ltval = growF(f.ltval, len(f.lval))
	f.ltptr = grow32(f.ltptr, m+1)
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range f.lrow {
		cnt[f.pinv[r]]++
	}
	f.ltptr[0] = 0
	for k := 0; k < m; k++ {
		f.ltptr[k+1] = f.ltptr[k] + cnt[k]
		cnt[k] = f.ltptr[k]
	}
	for k := 0; k < m; k++ {
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			kr := f.pinv[f.lrow[t]]
			f.ltrow[cnt[kr]] = f.prow[k]
			f.ltval[cnt[kr]] = f.lval[t]
			cnt[kr]++
		}
	}
}

// urSlack is the free room each U row gets at factorization, so the
// first spike entries landing in a row do not move it.
const urSlack = 4

// buildURows rebuilds U's row form from its column form.
func (f *basisLU) buildURows() {
	m := f.m
	for i := 0; i < m; i++ {
		f.urLen[i] = 0
	}
	for _, i := range f.ucIdx {
		f.urLen[i]++
	}
	next := int32(0)
	for i := 0; i < m; i++ {
		f.urBeg[i] = next
		f.urCap[i] = f.urLen[i] + urSlack
		next += f.urCap[i]
		f.urLen[i] = 0
	}
	f.urIdx = grow32(f.urIdx, int(next))
	f.urVal = growF(f.urVal, int(next))
	for j := 0; j < m; j++ {
		for t := f.ucBeg[j]; t < f.ucBeg[j]+f.ucLen[j]; t++ {
			i := f.ucIdx[t]
			u := f.urBeg[i] + f.urLen[i]
			f.urIdx[u] = int32(j)
			f.urVal[u] = f.ucVal[t]
			f.urLen[i]++
		}
	}
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// mark sets bit i of mask.
func mark(mask []uint64, i int32) { mask[i>>6] |= 1 << (uint(i) & 63) }

// ftran solves B x_out = x in place; x is a dense vector in row space
// on entry and in position space on return. Each solve clears the
// entries it leaves in the work vector w while writing its result.
func (f *basisLU) ftran(x []float64) {
	w := f.w
	copy(w, x)
	for k := 0; k < f.m; k++ { // L solve, forward scatter
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
	for i, v := range w {
		if v != 0 {
			mark(f.umask, f.upos[i])
		}
	}
	clear(x)
	f.usolve(w, x)
}

// ftranCol solves B x = a_q for column q of [A|I] into x and saves the
// spike the next update needs. The L solve visits only the rows the
// column reaches (the Gilbert–Peierls reach factorize uses), which is
// also the spike's pattern and seeds the U solve's mask.
func (f *basisLU) ftranCol(x []float64, q, n int, a *csc) {
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
		mark(f.umask, f.upos[i])
	}
	f.spikeOK = true
	clear(x)
	f.usolve(w, x)
}

// rDot returns row eta e's multipliers dotted with w. The loop is
// branch-free: most of w is zero, and testing for it costs more than
// the multiply.
func (f *basisLU) rDot(e int, w []float64) float64 {
	acc := 0.0
	for t := f.rStart[e]; t < f.rStart[e+1]; t++ {
		acc += f.rVal[t] * w[f.rIdx[t]]
	}
	return acc
}

// usolve finishes FTRAN: the U solve on w, backward in triangular
// order over the positions umask marks (the caller marks w's nonzeros;
// U column i scatters only into positions before i's). It writes each
// finished entry to its basis position in x, which must be zero on
// entry, lists those positions in xpat, and clears w and umask behind
// it.
func (f *basisLU) usolve(w, x []float64) {
	umask, uord, upos := f.umask, f.uord, f.upos
	xpat := f.xpat[:0]
	for k := len(umask) - 1; k >= 0; k-- {
		for umask[k] != 0 {
			b := 63 - bits.LeadingZeros64(umask[k])
			umask[k] &^= 1 << uint(b)
			i := uord[k<<6|b]
			wi := w[i]
			w[i] = 0
			if math.Abs(wi) <= tinyTol {
				continue
			}
			wi /= f.diag[i]
			pos := f.lpos[i]
			x[pos] = wi
			xpat = append(xpat, pos)
			t0, t1 := f.ucBeg[i], f.ucBeg[i]+f.ucLen[i]
			val := f.ucVal[t0:t1]
			for t, j := range f.ucIdx[t0:t1] {
				wj := w[j]
				if wj == 0 {
					mark(umask, upos[j])
				}
				w[j] = wj - val[t]*wi
			}
		}
	}
	f.xpat = xpat
}

// btran solves B^T y_out = y in place; y is a dense vector in position
// space on entry and in row space on return.
func (f *basisLU) btran(y []float64) {
	for i := 0; i < f.m; i++ {
		if v := y[f.lpos[i]]; v != 0 {
			f.w[i] = v
			mark(f.umask, f.upos[i])
		}
	}
	f.bsolve(y)
}

// btranUnit solves B^T y = e_r into y: row r of B^{-1}.
func (f *basisLU) btranUnit(r int, y []float64) {
	i := f.plab[r]
	f.w[i] = 1
	mark(f.umask, f.upos[i])
	f.bsolve(y)
}

// bsolve is BTRAN after Q^T, on w with its nonzeros marked in umask:
// U^T forward over umask (U row i scatters only into positions after
// i's), the row eta transposes in reverse, then L^T backward over
// kmask, which every entry left in w is marked in. The L^T pass writes
// each finished entry to y (cleared first), lists its row in ypat, and
// clears w and both masks behind it.
func (f *basisLU) bsolve(y []float64) {
	w := f.w
	umask, kmask, uord, upos, pinv := f.umask, f.kmask, f.uord, f.upos, f.pinv
	for k := range umask { // U^T solve, forward scatter by rows
		for umask[k] != 0 {
			b := bits.TrailingZeros64(umask[k])
			umask[k] &^= 1 << uint(b)
			i := uord[k<<6|b]
			wi := w[i]
			if math.Abs(wi) <= tinyTol {
				w[i] = 0
				continue
			}
			wi /= f.diag[i]
			w[i] = wi
			mark(kmask, pinv[i])
			t0, t1 := f.urBeg[i], f.urBeg[i]+f.urLen[i]
			val := f.urVal[t0:t1]
			for t, j := range f.urIdx[t0:t1] {
				wj := w[j]
				if wj == 0 {
					mark(umask, upos[j])
				}
				w[j] = wj - val[t]*wi
			}
		}
	}
	for e := len(f.rLab) - 1; e >= 0; e-- {
		v := w[f.rLab[e]]
		if math.Abs(v) <= tinyTol {
			continue
		}
		t0, t1 := f.rStart[e], f.rStart[e+1]
		val := f.rVal[t0:t1]
		for t, j := range f.rIdx[t0:t1] {
			wj := w[j]
			if wj == 0 {
				mark(kmask, pinv[j])
			}
			w[j] = wj - val[t]*v
		}
	}
	clear(y)
	ypat := f.ypat[:0]
	for k := len(kmask) - 1; k >= 0; k-- { // L^T solve, backward scatter
		for kmask[k] != 0 {
			b := 63 - bits.LeadingZeros64(kmask[k])
			kmask[k] &^= 1 << uint(b)
			kp := k<<6 | b
			i := f.prow[kp]
			v := w[i]
			w[i] = 0
			if math.Abs(v) <= tinyTol {
				continue
			}
			y[i] = v
			ypat = append(ypat, i)
			t0, t1 := f.ltptr[kp], f.ltptr[kp+1]
			val := f.ltval[t0:t1]
			for t, j := range f.ltrow[t0:t1] {
				wj := w[j]
				if wj == 0 {
					mark(kmask, pinv[j])
				}
				w[j] = wj - val[t]*v
			}
		}
	}
	f.ypat = ypat
}

// update replaces the column of basis position r with the entering
// column whose spike the last ftranCol saved; piv is that FTRAN's
// pivot entry (position r of B^{-1}a_q). It returns the entries the
// update stored (spike plus row eta), or false — leaving the factors
// untouched — when there is no valid spike or the new diagonal fails
// the stability check; the caller must then refactorize.
func (f *basisLU) update(r int, piv float64) (int, bool) {
	if !f.spikeOK {
		return 0, false
	}
	f.spikeOK = false
	m := f.m
	ir := f.plab[r]
	p := int(f.upos[ir])
	rw, umask := f.w, f.umask
	rb, re := f.urBeg[ir], f.urBeg[ir]+f.urLen[ir]
	for t := rb; t < re; t++ {
		j := f.urIdx[t]
		rw[j] = f.urVal[t]
		mark(umask, f.upos[j])
	}
	// eliminate row ir against the rows after it, in triangular order:
	// a forward sweep over umask, which holds only positions after p
	r0 := len(f.rIdx)
	dnew := f.spike[ir]
	for k := p >> 6; k < len(umask); k++ {
		for umask[k] != 0 {
			b := bits.TrailingZeros64(umask[k])
			umask[k] &^= 1 << uint(b)
			j := f.uord[k<<6|b]
			v := rw[j]
			rw[j] = 0
			if math.Abs(v) <= tinyTol {
				continue
			}
			mj := v / f.diag[j]
			f.rIdx = append(f.rIdx, j)
			f.rVal = append(f.rVal, mj)
			dnew -= mj * f.spike[j]
			t0, t1 := f.urBeg[j], f.urBeg[j]+f.urLen[j]
			val := f.urVal[t0:t1]
			for t, jj := range f.urIdx[t0:t1] {
				wj := rw[jj]
				if wj == 0 {
					mark(umask, f.upos[jj])
				}
				rw[jj] = wj - mj*val[t]
			}
		}
	}
	want := piv * f.diag[ir]
	if ad := math.Abs(dnew); ad < singTol || math.Abs(dnew-want) > updTol*math.Max(ad, math.Abs(want)) {
		f.rIdx, f.rVal = f.rIdx[:r0], f.rVal[:r0]
		return 0, false
	}
	// row ir leaves U's column form; column ir leaves U's row form
	for t := rb; t < re; t++ {
		f.ucRemove(f.urIdx[t], ir)
	}
	f.uNNZ -= int(re - rb)
	f.urLen[ir] = 0
	for t := f.ucBeg[ir]; t < f.ucBeg[ir]+f.ucLen[ir]; t++ {
		f.urRemove(f.ucIdx[t], ir)
	}
	f.uNNZ -= int(f.ucLen[ir])
	// the spike becomes column ir, last in the triangular order
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

// ucRemove drops row label i from U column j.
func (f *basisLU) ucRemove(j, i int32) {
	b, e := f.ucBeg[j], f.ucBeg[j]+f.ucLen[j]-1
	for t := b; t <= e; t++ {
		if f.ucIdx[t] == i {
			f.ucIdx[t], f.ucVal[t] = f.ucIdx[e], f.ucVal[e]
			f.ucLen[j]--
			return
		}
	}
}

// urRemove drops column label j from U row i.
func (f *basisLU) urRemove(i, j int32) {
	b, e := f.urBeg[i], f.urBeg[i]+f.urLen[i]-1
	for t := b; t <= e; t++ {
		if f.urIdx[t] == j {
			f.urIdx[t], f.urVal[t] = f.urIdx[e], f.urVal[e]
			f.urLen[i]--
			return
		}
	}
}

// urAppend adds entry (i, j) = v to U's row form, moving row i to the
// end of the pool, with room to grow, when it is full.
func (f *basisLU) urAppend(i, j int32, v float64) {
	n := f.urLen[i]
	if n == f.urCap[i] {
		b := f.urBeg[i]
		nb := int32(len(f.urIdx))
		f.urIdx = append(f.urIdx, f.urIdx[b:b+n]...)
		f.urVal = append(f.urVal, f.urVal[b:b+n]...)
		c := 2*n + urSlack
		for k := n; k < c; k++ {
			f.urIdx = append(f.urIdx, 0)
			f.urVal = append(f.urVal, 0)
		}
		f.urBeg[i], f.urCap[i] = nb, c
	}
	t := f.urBeg[i] + n
	f.urIdx[t], f.urVal[t] = j, v
	f.urLen[i] = n + 1
}
