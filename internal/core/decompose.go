// Package core implements the paper's primary contribution: the workload
// matrix decomposition W ≈ B·L of Section 4 computed by the inexact
// Augmented Lagrangian Method of Section 5 (Algorithm 1, with the
// Nesterov-accelerated projected-gradient inner solver of Algorithm 2),
// the resulting Low-Rank Mechanism (Eq. 6), and the error bounds of
// Lemmas 3–4 and Theorems 2–3.
package core

import (
	"errors"
	"fmt"
	"math"

	"lrm/internal/mat"
	"lrm/internal/optimize"
	"lrm/internal/rng"
)

// InnerSolver selects the algorithm used for the L-subproblem
// (Formula (10)). Nesterov is the paper's choice; plain projected
// gradient exists for the ablation study.
type InnerSolver int

const (
	// SolverNesterov is Algorithm 2 (default).
	SolverNesterov InnerSolver = iota
	// SolverProjectedGradient is the non-accelerated ablation baseline.
	SolverProjectedGradient
)

// Options configures Decompose. The zero value requests the defaults used
// throughout the experiments.
type Options struct {
	// Rank r is the inner dimension of B (m×r) and L (r×n). If zero,
	// 1.2·rank(W) is used — the paper's recommended setting (Section 6.1).
	Rank int
	// Gamma is the Frobenius tolerance ‖W−BL‖_F ≤ γ of Formula (8).
	// Zero requests the exact program (Formula (7)), implemented as a
	// tight tolerance of 1e-4·‖W‖_F.
	Gamma float64
	// MaxOuterIter bounds Algorithm 1's outer loop (default 100).
	MaxOuterIter int
	// MaxInnerIter bounds the alternating B/L passes per outer iteration
	// (default 5).
	MaxInnerIter int
	// MaxNesterovIter bounds Algorithm 2's iterations per L-update
	// (default 50).
	MaxNesterovIter int
	// Beta0 is the initial penalty β(0) (default 10; see withDefaults).
	Beta0 float64
	// BetaMax stops the outer loop once β exceeds it (default 1e8).
	BetaMax float64
	// BetaDoubleEvery selects the penalty schedule. Zero (default) is
	// adaptive: β doubles whenever an outer iteration fails to shrink the
	// residual by at least 30%, which reaches feasibility in far fewer
	// iterations than the paper's fixed schedule. A positive value
	// doubles β every that many outer iterations (10 reproduces the
	// paper's Algorithm 1 literally). Negative freezes β entirely — the
	// fixed-penalty ablation.
	BetaDoubleEvery int
	// Solver selects the inner solver (default Nesterov).
	Solver InnerSolver
	// Restarts runs the ALM this many times — once from the SVD starting
	// point and the rest from seeded random orthogonal rotations of it —
	// keeping the best feasible result. The program is nonconvex, so
	// extra starts can escape the SVD basin. 0 or 1 means a single run.
	Restarts int
	// RandomizedInit replaces the full Jacobi SVD used for the rank
	// default and the Lemma-3 starting point with the randomized range
	// finder (mat.RandSVD). On genuinely low-rank workloads — WRelated,
	// the paper's headline regime — this computes the same starting point
	// in O(mn·r) instead of O(mn·min(m,n)) per sweep. When the workload
	// turns out to be near full rank the probe falls back to the exact
	// SVD, so results never degrade.
	RandomizedInit bool
}

func (o *Options) withDefaults(svd *mat.SVD) Options {
	out := *o
	if out.Rank == 0 {
		out.Rank = int(math.Ceil(1.2 * float64(svd.Rank())))
		if out.Rank < 1 {
			out.Rank = 1
		}
	}
	if out.MaxOuterIter == 0 {
		out.MaxOuterIter = 100
	}
	if out.MaxInnerIter == 0 {
		out.MaxInnerIter = 5
	}
	if out.MaxNesterovIter == 0 {
		out.MaxNesterovIter = 50
	}
	if out.Beta0 == 0 {
		// The workload is normalized to unit Frobenius norm before the ALM
		// runs, so a fixed β(0) = 10 keeps the fit term dominant enough to
		// preserve the SVD initialization (β ≫ r is required for the
		// closed-form B-update not to collapse B on the first pass).
		out.Beta0 = 10
	}
	if out.BetaMax == 0 {
		out.BetaMax = 1e8
	}
	return out
}

// validate rejects options the ALM cannot honour: a negative rank, a γ
// that is negative or not finite (a NaN γ would make the feasibility
// test residual ≤ γ never hold), and a penalty β(0) or cap βmax that is
// negative or not finite. Zero keeps meaning "use the default".
func (o *Options) validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case o.Rank < 0:
		return fmt.Errorf("core: invalid options: rank %d is negative", o.Rank)
	case o.Gamma < 0 || !finite(o.Gamma):
		return fmt.Errorf("core: invalid options: gamma %v is negative or not finite", o.Gamma)
	case o.Beta0 < 0 || !finite(o.Beta0):
		return fmt.Errorf("core: invalid options: beta0 %v is negative or not finite", o.Beta0)
	case o.BetaMax < 0 || !finite(o.BetaMax):
		return fmt.Errorf("core: invalid options: betaMax %v is negative or not finite", o.BetaMax)
	}
	return nil
}

// Decomposition is the result of Decompose: W ≈ B·L with every column of
// L inside the unit L1 ball. After normalization (applied by Decompose),
// Δ(L) = 1 exactly, so the mechanism's expected squared error is simply
// 2·tr(BᵀB)/ε² (Lemma 1).
type Decomposition struct {
	B *mat.Dense // m×r
	L *mat.Dense // r×n

	// Residual is ‖W − B·L‖_F at termination.
	Residual float64
	// OuterIterations is the number of ALM iterations executed.
	OuterIterations int
	// Converged reports whether the residual reached γ before the
	// iteration or penalty limits.
	Converged bool
}

// Scale returns Φ(B,L) = Σ Bᵢⱼ² (Definition 1).
func (d *Decomposition) Scale() float64 { return mat.SquaredSum(d.B) }

// Sensitivity returns Δ(B,L) = max_j Σᵢ |Lᵢⱼ| (Definition 2).
func (d *Decomposition) Sensitivity() float64 { return mat.MaxColAbsSum(d.L) }

// ExpectedSSE returns the analytic expected sum of squared errors of the
// mechanism built on this decomposition: 2·Φ(B,L)·Δ(B,L)²/ε² (Lemma 1).
// It excludes the structural error of a relaxed (γ > 0) decomposition;
// see StructuralErrorBound.
func (d *Decomposition) ExpectedSSE(eps float64) float64 {
	delta := d.Sensitivity()
	return 2 * d.Scale() * delta * delta / (eps * eps)
}

// StructuralErrorBound returns the data-dependent part of Theorem 3's
// bound: ‖W−BL‖_F²·Σxᵢ², given Σxᵢ². (The theorem states the total
// expected error is at most 2·tr(BᵀB)/ε² + γ·Σxᵢ² with γ bounding the
// squared residual term.)
func (d *Decomposition) StructuralErrorBound(dataSquaredSum float64) float64 {
	return d.Residual * d.Residual * dataSquaredSum
}

// Normalize rescales (B,L) per Lemma 2 so that Δ(L) = 1 (when L is
// nonzero), leaving both W ≈ BL and the error objective unchanged.
func (d *Decomposition) Normalize() {
	delta := d.Sensitivity()
	if delta == 0 || delta == 1 {
		return
	}
	d.L = mat.Scale(1/delta, d.L)
	d.B = mat.Scale(delta, d.B)
}

// Decompose runs Algorithm 1 (inexact ALM) on the workload matrix w,
// returning the optimal decomposition found for the program
//
//	min ½·tr(BᵀB)  s.t. ‖W−BL‖_F ≤ γ,  ∀j Σᵢ|Lᵢⱼ| ≤ 1   (Formula 8)
//
// The result is normalized so Δ(L) = 1.
func Decompose(w *mat.Dense, opts Options) (*Decomposition, error) {
	return decompose(w, nil, opts)
}

// DecomposeAnalyzed is Decompose for callers that already hold the thin
// SVD of w — typically a planner that ran workload.Analyze and wants the
// chosen mechanism to reuse that factorization instead of running a
// second one. The provided SVD backs both the rank default and the
// Lemma-3 starting point (rescaled internally to the ALM's normalized
// units, which is loss-free: scaling a matrix scales its singular values
// and leaves the singular vectors and numerical rank unchanged). A nil
// svd falls back to Decompose exactly.
func DecomposeAnalyzed(w *mat.Dense, svd *mat.SVD, opts Options) (*Decomposition, error) {
	if svd != nil {
		if svd.U == nil || svd.V == nil || len(svd.S) == 0 {
			return nil, errors.New("core: DecomposeAnalyzed with incomplete SVD")
		}
		if svd.U.Rows() != w.Rows() || svd.V.Rows() != w.Cols() ||
			svd.U.Cols() != len(svd.S) || svd.V.Cols() != len(svd.S) {
			return nil, fmt.Errorf("core: SVD shapes (U %d×%d, S %d, V %d×%d) do not factor a %d×%d workload",
				svd.U.Rows(), svd.U.Cols(), len(svd.S), svd.V.Rows(), svd.V.Cols(), w.Rows(), w.Cols())
		}
	}
	return decompose(w, svd, opts)
}

// decompose is the shared body of Decompose and DecomposeAnalyzed;
// preSVD, when non-nil, is a thin SVD of the *original* (unnormalized) w.
func decompose(w *mat.Dense, preSVD *mat.SVD, opts Options) (*Decomposition, error) {
	if w.Rows() == 0 || w.Cols() == 0 {
		return nil, errors.New("core: empty workload matrix")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if !w.IsFinite() {
		return nil, errors.New("core: workload matrix contains NaN or Inf")
	}
	m, n := w.Dims()

	// Normalize the workload to unit Frobenius norm so the penalty
	// schedule is scale-free; B is rescaled on the way out (Lemma 2 makes
	// this loss-free).
	wNorm := mat.FrobeniusNorm(w)
	if wNorm == 0 {
		r := opts.Rank
		if r == 0 {
			r = 1
		}
		return &Decomposition{B: mat.New(m, r), L: mat.New(r, n), Converged: true}, nil
	}
	w = mat.Scale(1/wNorm, w)

	// The SVD is shared by the rank default and the Lemma-3 init; the
	// randomized path probes only as many components as the workload's
	// rank (or the requested r) actually needs. A caller-provided SVD
	// (DecomposeAnalyzed) factors the original w, so its singular values
	// are rescaled into the normalized units; U, V, and the numerical
	// rank are scale-invariant and shared as-is.
	var svd *mat.SVD
	switch {
	case preSVD != nil:
		s := make([]float64, len(preSVD.S))
		for i, v := range preSVD.S {
			s[i] = v / wNorm
		}
		svd = &mat.SVD{U: preSVD.U, S: s, V: preSVD.V}
	case opts.RandomizedInit:
		svd = randomizedInitSVD(w, opts.Rank)
	default:
		svd = mat.FactorSVD(w)
	}
	o := opts.withDefaults(svd)
	r := o.Rank
	// γ works in original workload units; the ALM runs in normalized
	// units. A zero γ requests the exact program, implemented as the
	// tight relative tolerance 1e-4·‖W‖_F.
	gamma := o.Gamma / wNorm
	if o.Gamma == 0 {
		gamma = 1e-4
	}

	// Starting points: the SVD construction of Lemma 3 plus optional
	// seeded random rotations of it (Restarts). The program is nonconvex,
	// so the best feasible result across starts wins, judged by the true
	// objective Φ(B)·Δ(L)² (which is what the mechanism's error is made
	// of — raw Φ alone is meaningless across candidates whose Δ differ).
	b0, l0 := initDecomposition(w, r, svd)
	type start struct{ b, l *mat.Dense }
	starts := []start{{b0, l0}}
	for i := 1; i < o.Restarts; i++ {
		qb, ql := rotateInit(b0, l0, int64(i))
		starts = append(starts, start{qb, ql})
	}

	effObj := func(bm, lm *mat.Dense) float64 {
		d := mat.MaxColAbsSum(lm)
		return mat.SquaredSum(bm) * d * d
	}
	var b, l *mat.Dense
	residualOut := math.Inf(1)
	outerOut := 0
	convergedOut := false
	consider := func(cb, cl *mat.Dense, cres float64, cconv bool) {
		better := b == nil
		switch {
		case better:
		case cconv && !convergedOut:
			better = true
		case cconv == convergedOut && cconv:
			better = effObj(cb, cl) < effObj(b, l)
		case cconv == convergedOut:
			better = cres < residualOut
		}
		if better {
			b, l, residualOut, convergedOut = cb, cl, cres, cconv
		}
	}
	for _, st := range starts {
		cb, cl, cres, couter, cconv := runALM(w, o, gamma, st.b, st.l)
		outerOut += couter
		consider(cb, cl, cres, cconv)
	}

	// On near-full-rank workloads the SVD basin can be far worse than the
	// trivial identity strategy (B = W, L = I, objective ΣWᵢⱼ² = 1 in
	// normalized units). The raw identity point is always considered (it
	// is free and exactly feasible, so the result can never lose badly to
	// noise-on-data); on small domains it is additionally refined by its
	// own ALM run — its inner dimension is n, so refinement cost grows
	// cubically with the domain and is skipped on large ones.
	const refineMaxDomain = 384
	if b == nil || !convergedOut || effObj(b, l) > 1 {
		ib := w.Clone()
		il := mat.Eye(n)
		if n <= refineMaxDomain {
			cb, cl, cres, couter, cconv := runALM(w, o, gamma, ib, il)
			outerOut += couter
			consider(cb, cl, cres, cconv)
		} else {
			consider(ib, il, 0, true)
		}
	}

	// The noise-on-results strategy is the other free, exactly feasible
	// classical point: B = Δ'·I (zero-padded to m×r), L = W/Δ' with
	// Δ' = max_j Σᵢ|Wᵢⱼ|, objective m·Δ'² in normalized units. It needs
	// r ≥ m and dominates on batches whose sensitivity is small relative
	// to their squared sum (e.g. marginals). Considering it guarantees the
	// optimizer never loses to the NOR baseline either.
	if delta := mat.MaxColAbsSum(w); r >= m && delta > 0 {
		norObj := float64(m) * delta * delta
		if b == nil || !convergedOut || effObj(b, l) > norObj {
			nb := mat.New(m, r)
			for i := 0; i < m; i++ {
				nb.Set(i, i, delta)
			}
			nl := mat.New(r, n)
			for i := 0; i < m; i++ {
				row := w.RawRow(i)
				dst := nl.RawRow(i)
				for j, v := range row {
					dst[j] = v / delta
				}
			}
			if n <= refineMaxDomain {
				cb, cl, cres, couter, cconv := runALM(w, o, gamma, nb, nl)
				outerOut += couter
				consider(cb, cl, cres, cconv)
			} else {
				consider(nb, nl, 0, true)
			}
		}
	}

	d := &Decomposition{
		B:               mat.Scale(wNorm, b), // undo the input normalization
		L:               l,
		Residual:        residualOut * wNorm,
		OuterIterations: outerOut,
		Converged:       convergedOut,
	}
	d.Normalize()
	return d, nil
}

// randomizedInitSVD returns a truncated SVD adequate for the Lemma-3
// starting point. With an explicit rank it probes exactly that many
// components; otherwise it doubles the probe size until the numerical
// rank is strictly inside the probe (so no direction was missed), falling
// back to the exact SVD when the workload is near full rank or the probe
// errors.
func randomizedInitSVD(w *mat.Dense, rank int) *mat.SVD {
	m, n := w.Dims()
	minDim := m
	if n < minDim {
		minDim = n
	}
	if rank > 0 {
		k := rank
		if k > minDim {
			k = minDim
		}
		// The seed drives the Gaussian sketch of the randomized range
		// finder — a deterministic-by-design numerical probe, not a noise
		// stream; a fixed seed keeps Decompose bit-reproducible.
		//lint:ignore noiserand SVD sketch seed, not privacy noise
		if s, err := mat.RandSVD(w, k, mat.RandSVDOptions{Seed: 1}); err == nil {
			return s
		}
		return mat.FactorSVD(w)
	}
	for k := 16; k < minDim; k *= 2 {
		//lint:ignore noiserand SVD sketch seed, not privacy noise
		s, err := mat.RandSVD(w, k, mat.RandSVDOptions{Seed: 1})
		if err != nil {
			break
		}
		if s.Rank() < len(s.S) {
			return s
		}
	}
	return mat.FactorSVD(w)
}

// rotateInit applies a seeded random orthogonal mixing Q to the starting
// point: (B·Qᵀ)·(Q·L) = B·L, so the rotated start reconstructs W equally
// well while sitting in a different region of the (nonconvex) landscape.
// Columns of Q·L may exceed the L1 ball slightly; the ALM's projection
// restores feasibility on the first L-update.
func rotateInit(b, l *mat.Dense, seed int64) (*mat.Dense, *mat.Dense) {
	r := l.Rows()
	src := rng.New(seed * 7919)
	g := mat.New(r, r)
	for i := range g.RawData() {
		g.RawData()[i] = src.Normal()
	}
	// The U factor of a square Gaussian matrix is Haar-distributed
	// orthogonal (almost surely full rank).
	q := mat.FactorSVD(g).U
	return mat.MulABt(b, q), mat.Mul(q, l)
}

// almState owns every buffer the ALM outer/inner loops touch. All
// scratch is sized once at construction, so the alternating B/L updates
// — executed up to MaxOuterIter·MaxInnerIter times per decomposition —
// perform no per-iteration heap allocation (pinned by a
// testing.AllocsPerRun regression test).
type almState struct {
	w     *mat.Dense
	o     Options
	gamma float64
	beta  float64

	b     *mat.Dense // current B, m×r (overwritten in place by updateB)
	l     *mat.Dense // current L, r×n
	lPrev *mat.Dense // previous L (ping-pongs with l across updateL calls)
	pi    *mat.Dense // Lagrange multiplier π, m×n

	pw    *mat.Dense // π + β·W, m×n
	diff  *mat.Dense // W − B·L, m×n
	rhs   *mat.Dense // (π+βW)·Lᵀ, m×r
	sys   *mat.Dense // β·LLᵀ + I, r×r
	lwork *mat.Dense // Cholesky factor scratch, r×r
	btb   *mat.Dense // BᵀB, r×r
	kmat  *mat.Dense // Bᵀ(π+βW), r×n
	gm    *mat.Dense // BᵀB·L gradient scratch, r×n
	lmHdr *mat.Dense // reusable header wrapping solver iterates, r×n

	x0         []float64 // inner-solver starting point, r·n
	powX, powY []float64 // power-iteration scratch, r
	projBuf    []float64 // column-projection scratch, 2·r + n

	nwork   *optimize.Workspace
	problem optimize.Problem
}

// newALMState clones the starting point into solver-owned buffers and
// builds the L-subproblem closures once, so nothing is re-created per
// iteration.
func newALMState(w *mat.Dense, o Options, gamma float64, b0, l0 *mat.Dense) *almState {
	m, n := w.Dims()
	r := l0.Rows()
	s := &almState{
		w:     w,
		o:     o,
		gamma: gamma,
		beta:  o.Beta0,
		b:     b0.Clone(),
		l:     l0.Clone(),
		lPrev: mat.New(r, n),
		pi:    mat.New(m, n),
		pw:    mat.New(m, n),
		diff:  mat.New(m, n),
		rhs:   mat.New(m, r),
		sys:   mat.New(r, r),
		lwork: mat.New(r, r),
		btb:   mat.New(r, r),
		kmat:  mat.New(r, n),
		gm:    mat.New(r, n),
		lmHdr: mat.New(0, 0),

		x0:      make([]float64, r*n),
		powX:    make([]float64, r),
		powY:    make([]float64, r),
		projBuf: make([]float64, 2*r+n),

		nwork: optimize.NewWorkspace(),
	}
	// The quadratic subproblem of Formula (10):
	//	G(L) = β/2·tr(LᵀBᵀBL) − tr((βW+π)ᵀBL)
	//	∇G  = β·BᵀB·L − Bᵀ·(βW+π)
	// btb and kmat are refreshed by updateL before each solve; beta is
	// read through the state so the closures track the penalty schedule.
	s.problem = optimize.Problem{
		Dim: r * n,
		Value: func(x []float64) float64 {
			s.lmHdr.Reuse(r, n, x)
			mat.MulTo(s.gm, s.btb, s.lmHdr)
			return 0.5*s.beta*mat.Dot(s.lmHdr, s.gm) - mat.Dot(s.kmat, s.lmHdr)
		},
		Grad: func(x, g []float64) {
			s.lmHdr.Reuse(r, n, x)
			mat.MulTo(s.gm, s.btb, s.lmHdr)
			beta := s.beta
			gd, kd := s.gm.RawData()[:len(g)], s.kmat.RawData()[:len(g)]
			for i := range g {
				g[i] = beta*gd[i] - kd[i]
			}
		},
		Project: func(x []float64) {
			optimize.ProjectColumnsL1Buf(x, r, n, 1, s.projBuf)
		},
	}
	return s
}

// residual recomputes W − B·L into s.diff and returns its Frobenius norm.
//
//lrm:noalloc — runs every outer iteration against preallocated state
func (s *almState) residual() float64 {
	mat.MulTo(s.diff, s.b, s.l)
	mat.SubTo(s.diff, s.w, s.diff)
	return mat.FrobeniusNorm(s.diff)
}

// runALM executes Algorithm 1 from the given starting point on the
// normalized workload, returning the best feasible iterate found (seeded
// with the start itself when feasible).
func runALM(w *mat.Dense, o Options, gamma float64, b0, l0 *mat.Dense) (outB, outL *mat.Dense, residualOut float64, outer int, converged bool) {
	s := newALMState(w, o, gamma, b0, l0)
	residual := math.Inf(1)

	// Track the best feasible iterate by objective: once the residual
	// reaches γ, further outer iterations typically keep shrinking
	// tr(BᵀB), so we continue until the improvement stalls rather than
	// returning at first feasibility.
	var bestB, bestL *mat.Dense
	bestObj := math.Inf(1)
	bestResidual := math.Inf(1)
	// The SVD starting point is itself feasible whenever its truncation
	// error fits in γ; seeding the tracker with it guarantees the result
	// never falls above Lemma 3's bound however the trajectory wanders.
	if initRes := s.residual(); initRes <= gamma {
		bestB = s.b.Clone()
		bestL = s.l.Clone()
		bestObj = mat.SquaredSum(s.b)
		bestResidual = initRes
	}
	const stallWindow = 15
	stallRef := math.Inf(1)
	stallAge := 0
	prevResidual := math.Inf(1)

outerLoop:
	for k := 1; k <= o.MaxOuterIter; k++ {
		outer = k
		// Approximately solve the subproblem by alternating B and L.
		for inner := 0; inner < o.MaxInnerIter; inner++ {
			if err := s.updateB(); err != nil {
				// The system βLLᵀ+I is SPD by construction, so a solve
				// failure only means catastrophic numerics: stop this run
				// and return the best feasible iterate recorded so far
				// (the feasible start included), like any other exit.
				break outerLoop
			}
			s.updateL()
			// Early exit when the inner alternation has stalled.
			if mat.FrobeniusDist(s.l, s.lPrev) < 1e-10*(1+mat.FrobeniusNorm(s.lPrev)) {
				break
			}
		}

		residual = s.residual()
		if residual <= gamma {
			converged = true
			if obj := mat.SquaredSum(s.b); obj < bestObj {
				bestObj = obj
				if bestB == nil {
					bestB = s.b.Clone()
					bestL = s.l.Clone()
				} else {
					bestB.CopyFrom(s.b)
					bestL.CopyFrom(s.l)
				}
				bestResidual = residual
			}
			// Stop once the feasible objective has stopped improving.
			stallAge++
			if stallAge >= stallWindow {
				if bestObj > stallRef*(1-1e-3) {
					break
				}
				stallRef = bestObj
				stallAge = 0
			}
		} else {
			stallAge = 0
			stallRef = math.Inf(1)
		}
		if s.beta >= o.BetaMax {
			break
		}
		switch {
		case o.BetaDoubleEvery > 0:
			if k%o.BetaDoubleEvery == 0 {
				s.beta *= 2
			}
		case o.BetaDoubleEvery == 0:
			// Adaptive: escalate the penalty only while infeasible and
			// stalling. Once the residual is inside γ, β stays put — at
			// ever-larger penalties the subproblem degenerates into pure
			// fitting and the tr(BᵀB) objective stops descending.
			if residual > gamma && residual > 0.7*prevResidual {
				s.beta *= 2
			}
		}
		prevResidual = residual
		// π(k+1) = π(k) + β·(W − B·L). s.diff still holds the residual
		// matrix computed above.
		mat.AddScaledTo(s.pi, s.pi, s.beta, s.diff)
	}

	if bestB != nil {
		return bestB, bestL, bestResidual, outer, true // a feasible iterate was found and kept
	}
	return s.b, s.l, residual, outer, converged
}

// initDecomposition builds the SVD-based feasible starting point from the
// proof of Lemma 3: B = √k'·U·Σ, L = Vᵀ/√k' on the leading k' = min(r,
// rank) singular triples, zero-padded up to r. Every column of L then has
// L1 norm ≤ 1 (‖v‖₁ ≤ √k'·‖v‖₂).
func initDecomposition(w *mat.Dense, r int, svd *mat.SVD) (b, l *mat.Dense) {
	m, n := w.Dims()
	k := svd.Rank()
	if k > r {
		k = r
	}
	if k == 0 {
		k = 1 // degenerate all-zero workload; keep shapes valid
	}
	scale := math.Sqrt(float64(k))
	b = mat.New(m, r)
	for i := 0; i < m; i++ {
		row := b.RawRow(i)
		for j := 0; j < k; j++ {
			row[j] = scale * svd.U.At(i, j) * svd.S[j]
		}
	}
	l = mat.New(r, n)
	inv := 1 / scale
	for i := 0; i < k; i++ {
		row := l.RawRow(i)
		for j := 0; j < n; j++ {
			row[j] = inv * svd.V.At(j, i)
		}
	}
	return b, l
}

// updateB applies the closed-form solution of Eq. (9):
// B = (βW+π)·Lᵀ·(βLLᵀ+I)⁻¹, an r×r SPD solve. It overwrites s.b in
// place (the update does not read the previous B) and leaves π+βW in
// s.pw for updateL to reuse.
//
//lrm:noalloc — the ALM inner loop: every buffer comes from almState
func (s *almState) updateB() error {
	mat.AddScaledTo(s.pw, s.pi, s.beta, s.w)
	mat.MulABtTo(s.rhs, s.pw, s.l) // (βW+π)Lᵀ, m×r
	mat.GramTTo(s.sys, s.l)        // LLᵀ
	mat.ScaleTo(s.sys, s.beta, s.sys)
	r := s.sys.Rows()
	for i := 0; i < r; i++ {
		s.sys.Set(i, i, s.sys.At(i, i)+1)
	}
	return mat.SolveRightSPDTo(s.b, s.rhs, s.sys, s.lwork)
}

// updateL minimizes the quadratic G(L) of Formula (10) over the per-column
// L1 balls (Formula 11) using the configured inner solver, writing the
// new iterate into s.l (the previous one lands in s.lPrev). It relies on
// s.pw holding π+βW from the updateB call of the same alternation pass.
// This is the ALM inner loop: solver scratch lives in s.nwork, and the
// AllocsPerRun pin in alloc_test.go counts on this body staying clean.
//
//lrm:noalloc
func (s *almState) updateL() {
	mat.GramTo(s.btb, s.b)          // BᵀB, r×r
	mat.MulAtBTo(s.kmat, s.b, s.pw) // Bᵀ(βW+π), r×n
	copy(s.x0, s.l.RawData())
	var res optimize.Result
	if s.o.Solver == SolverProjectedGradient {
		// Ablation baseline: plain projected gradient with backtracking.
		nopt := optimize.NesterovOptions{
			MaxIter:    s.o.MaxNesterovIter,
			Lipschitz0: s.beta*mat.FrobeniusNorm(s.btb) + 1,
			Work:       s.nwork,
		}
		res = optimize.ProjectedGradient(s.problem, s.x0, nopt)
	} else {
		// G is quadratic with ∇G exactly β·λmax(BᵀB)-Lipschitz, so a
		// certified constant (power iteration plus 5% headroom) lets
		// Nesterov skip line search: one gradient product per iteration.
		lip := s.beta*mat.LambdaMaxSymBuf(s.btb, 100, s.powX, s.powY)*1.05 + 1e-12
		nopt := optimize.NesterovOptions{
			MaxIter:        s.o.MaxNesterovIter,
			Lipschitz0:     lip,
			FixedLipschitz: true,
			Work:           s.nwork,
		}
		res = optimize.NesterovPG(s.problem, s.x0, nopt)
	}
	// res.X aliases workspace memory: copy it into the ping-pong buffer
	// and retire it before the next solver call reuses the workspace.
	s.l, s.lPrev = s.lPrev, s.l
	copy(s.l.RawData(), res.X)
	s.nwork.Put(res.X)
}
