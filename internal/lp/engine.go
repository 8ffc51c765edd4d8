package lp

import "fmt"

// Engine selects the simplex implementation backing a Solver.
//
// The dense engine keeps the full m x (n+m) tableau B^{-1}[A|I] and
// eliminates it on every pivot — O(m·n) per pivot, unbeatable on the
// small dense relaxations branch-and-bound nodes mostly are. The
// revised engine keeps the constraint matrix in sparse column form and
// the basis as a sparse LU factorization with Forrest–Tomlin updates,
// so a pivot costs O(nnz) of the factor solves instead of O(m·n); it wins on
// the larger, sparser models (density of the paper's formulations drops
// well under 1% at fir16-scale instances).
//
// Both engines share every contract of Solver — warm edits, clones,
// snapshots, Farkas certification, deterministic tie-breaking — and are
// cross-checked against each other by FuzzDifferential.
type Engine int

const (
	// EngineAuto picks per problem by the density × size heuristic of
	// ChooseEngine. The default.
	EngineAuto Engine = iota
	// EngineDense forces the dense tableau engine.
	EngineDense
	// EngineRevised forces the sparse revised engine.
	EngineRevised
)

func (e Engine) String() string {
	switch e {
	case EngineDense:
		return "dense"
	case EngineRevised:
		return "revised"
	default:
		return "auto"
	}
}

// ParseEngine parses an engine name; "" means EngineAuto.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "dense":
		return EngineDense, nil
	case "revised":
		return EngineRevised, nil
	}
	return 0, fmt.Errorf("lp: unknown engine %q (want auto, dense or revised)", s)
}

// Engine-selection thresholds for ChooseEngine. A problem must be both
// big enough that the dense pivot's O(m·n) actually hurts and sparse
// enough that the factor solves stay short; measurements on the
// benchmark suite (BENCH_trajectory.json) put the crossover well below
// these values, so the thresholds are conservative: small problems keep
// the dense engine's bit-for-bit historical behavior.
const (
	// engineMinCells is the minimum tableau size m*(n+m) before the
	// revised engine is considered.
	engineMinCells = 1 << 15
	// engineMinRows is the minimum row count — below it the dense
	// elimination fits in cache no matter the column count.
	engineMinRows = 48
	// engineMaxDensity is the maximum nnz/(m*n) fraction: denser
	// matrices fill the LU factors enough that the dense tableau wins.
	engineMaxDensity = 0.25
)

// ChooseEngine is the EngineAuto heuristic: given the model shape it
// returns the engine NewSolver will run. Exported so benchmarks and CI
// smoke tests can assert which engine a model class gets.
func ChooseEngine(vars, rows, nnz int) Engine {
	if rows < engineMinRows || rows*(vars+rows) < engineMinCells {
		return EngineDense
	}
	if vars > 0 && float64(nnz) > engineMaxDensity*float64(rows)*float64(vars) {
		return EngineDense
	}
	return EngineRevised
}

// EngineKind reports the engine actually backing the solver: never
// EngineAuto — auto resolves at NewSolver time.
func (s *Solver) EngineKind() Engine {
	if s.rev != nil {
		return EngineRevised
	}
	return EngineDense
}
