package optimize

import (
	"math"
)

// Problem describes a smooth objective over ℝᵈ (stored flat) with a
// projection onto its feasible set. Grad must write into the supplied
// slice to avoid per-iteration allocation.
type Problem struct {
	// Dim is the number of variables.
	Dim int
	// Value returns the objective at x.
	Value func(x []float64) float64
	// Grad writes ∇f(x) into grad.
	Grad func(x []float64, grad []float64)
	// Project maps x in place onto the feasible set. Nil means
	// unconstrained.
	Project func(x []float64)
}

// NesterovOptions configures NesterovPG.
type NesterovOptions struct {
	// MaxIter bounds the number of accelerated iterations (default 300).
	MaxIter int
	// Tol is the stopping threshold on ‖S − L(t)‖_F between the
	// extrapolated point and its projected update (Algorithm 2 line 9;
	// default dim·1e-12 as in the paper's χ).
	Tol float64
	// Lipschitz0 is the initial Lipschitz estimate ω(0) (default 1).
	Lipschitz0 float64
	// FixedLipschitz trusts Lipschitz0 as a certified upper bound on the
	// gradient's Lipschitz constant and skips backtracking entirely.
	// For quadratic objectives (the LRM inner problem) the sufficient-
	// decrease inequality then holds unconditionally, so each iteration
	// costs one gradient evaluation and one projection — no objective
	// evaluations at all.
	FixedLipschitz bool
	// Work, when non-nil, supplies all solver scratch so a call performs
	// no heap allocation. Result.X then aliases Work memory: the caller
	// must copy it out and Put it back before the workspace is reused.
	Work *Workspace
}

// Result reports the outcome of an optimization run.
type Result struct {
	X          []float64
	Value      float64
	Iterations int
	Converged  bool
}

// NesterovPG minimizes p over its feasible set using Nesterov's
// accelerated projected gradient with backtracking estimation of the
// Lipschitz constant — Algorithm 2 of the paper. The returned X is
// feasible.
func NesterovPG(p Problem, x0 []float64, opt NesterovOptions) Result {
	if opt.MaxIter == 0 {
		opt.MaxIter = 300
	}
	if opt.Tol == 0 {
		opt.Tol = float64(p.Dim) * 1e-12
	}
	omega := opt.Lipschitz0
	if omega == 0 {
		omega = 1
	}

	d := p.Dim
	// L(t) and L(t−1) in the paper's notation.
	cur := workGet(opt.Work, d)
	copy(cur, x0)
	if p.Project != nil {
		p.Project(cur)
	}
	prev := workGet(opt.Work, d)
	copy(prev, cur)

	s := workGet(opt.Work, d)    // extrapolated point S
	grad := workGet(opt.Work, d) // ∇G(S)
	u := workGet(opt.Work, d)    // candidate update
	defer func() {
		// cur is returned as Result.X; everything else goes back. The
		// fixed-step loop rotates the three iterate buffers, so these
		// are whichever slices the names hold on return.
		workPut(opt.Work, prev)
		workPut(opt.Work, s)
		workPut(opt.Work, grad)
		workPut(opt.Work, u)
	}()

	if opt.FixedLipschitz {
		var iters int
		var converged bool
		cur, prev, u, iters, converged = nesterovFixed(p, cur, prev, s, grad, u, omega, opt)
		return Result{X: cur, Value: p.Value(cur), Iterations: iters, Converged: converged}
	}

	deltaPrev, delta := 0.0, 1.0
	converged := false
	iters := 0
	for t := 1; t <= opt.MaxIter; t++ {
		iters = t
		alpha := (deltaPrev - 1) / delta
		for i := range s {
			s[i] = cur[i] + alpha*(cur[i]-prev[i])
		}
		p.Grad(s, grad)

		gs := p.Value(s)
		// Backtracking line search on the Lipschitz estimate ω.
		accepted := false
		for j := 0; j < 60; j++ {
			for i := range u {
				u[i] = s[i] - grad[i]/omega
			}
			if p.Project != nil {
				p.Project(u)
			}
			// Convergence: the projected point did not move from S.
			var moved float64
			for i := range u {
				dlt := u[i] - s[i]
				moved += dlt * dlt
			}
			if math.Sqrt(moved) < opt.Tol {
				copy(cur, u)
				converged = true
				accepted = true
				break
			}
			// Sufficient decrease w.r.t. the quadratic model
			// J_{ω,S}(U) = G(S) + ⟨∇G(S), U−S⟩ + ω/2·‖U−S‖².
			var lin, quad float64
			for i := range u {
				dlt := u[i] - s[i]
				lin += grad[i] * dlt
				quad += dlt * dlt
			}
			model := gs + lin + 0.5*omega*quad
			if p.Value(u) <= model {
				accepted = true
				break
			}
			omega *= 2
		}
		if !accepted {
			// Lipschitz search failed to certify descent; accept the last
			// candidate anyway to make progress.
			copy(prev, cur)
			copy(cur, u)
			break
		}
		if converged {
			break
		}
		copy(prev, cur)
		copy(cur, u)
		deltaPrev, delta = delta, (1+math.Sqrt(1+4*delta*delta))/2
		// Mild decrease of the Lipschitz estimate lets ω adapt downward
		// across iterations, as is standard for backtracking APG.
		omega *= 0.9
	}
	return Result{X: cur, Value: p.Value(cur), Iterations: iters, Converged: converged}
}

// nesterovFixed is NesterovPG's fixed-Lipschitz loop: every step takes
// the certified step 1/ω and evaluates no objective. cur and prev hold
// the projected start; s, grad and u are scratch of the same length. The
// three iterate buffers rotate instead of being copied each step, so it
// returns the final iterate plus the buffers now serving as prev and u,
// with the step count and whether the ‖U − S‖ stopping rule fired.
//
// A step's stopping norm ‖U − S‖² is summed in the pass that overwrites
// S with the next extrapolated point, in the same ascending index order
// as a separate pass; only the last allowed step sums it on its own. The
// iterates and the step count are exactly those of the plain loop:
// extrapolate, gradient, step, project, test.
func nesterovFixed(p Problem, cur, prev, s, grad, u []float64, omega float64, opt NesterovOptions) (x, prevOut, uOut []float64, iters int, converged bool) {
	if opt.MaxIter < 1 {
		return cur, prev, u, 0, false
	}
	n := len(s)
	deltaPrev, delta := 0.0, 1.0
	alpha := (deltaPrev - 1) / delta
	c, pv := cur[:n], prev[:n]
	for i := range s {
		s[i] = c[i] + alpha*(c[i]-pv[i])
	}
	g := grad[:n]
	for t := 1; ; t++ {
		p.Grad(s, grad)
		un := u[:n]
		for i := range s {
			un[i] = s[i] - g[i]/omega
		}
		if p.Project != nil {
			p.Project(u)
		}
		prev, cur, u = cur, u, prev
		c, pv = cur[:n], prev[:n]
		var moved float64
		if t == opt.MaxIter {
			for i := range s {
				dlt := c[i] - s[i]
				moved += dlt * dlt
			}
			return cur, prev, u, t, math.Sqrt(moved) < opt.Tol
		}
		deltaPrev, delta = delta, (1+math.Sqrt(1+4*delta*delta))/2
		alpha = (deltaPrev - 1) / delta
		for i := range s {
			dlt := c[i] - s[i]
			moved += dlt * dlt
			s[i] = c[i] + alpha*(c[i]-pv[i])
		}
		if math.Sqrt(moved) < opt.Tol {
			return cur, prev, u, t, true
		}
	}
}

// ProjectedGradient is the plain (non-accelerated) projected gradient
// method with the same backtracking rule. It exists as the ablation
// baseline against NesterovPG.
func ProjectedGradient(p Problem, x0 []float64, opt NesterovOptions) Result {
	if opt.MaxIter == 0 {
		opt.MaxIter = 300
	}
	if opt.Tol == 0 {
		opt.Tol = float64(p.Dim) * 1e-12
	}
	omega := opt.Lipschitz0
	if omega == 0 {
		omega = 1
	}
	d := p.Dim
	cur := workGet(opt.Work, d)
	copy(cur, x0)
	if p.Project != nil {
		p.Project(cur)
	}
	grad := workGet(opt.Work, d)
	u := workGet(opt.Work, d)
	defer func() {
		workPut(opt.Work, grad)
		workPut(opt.Work, u)
	}()

	converged := false
	iters := 0
	for t := 1; t <= opt.MaxIter; t++ {
		iters = t
		p.Grad(cur, grad)
		fcur := p.Value(cur)
		accepted := false
		for j := 0; j < 60; j++ {
			for i := range u {
				u[i] = cur[i] - grad[i]/omega
			}
			if p.Project != nil {
				p.Project(u)
			}
			var moved, lin, quad float64
			for i := range u {
				dlt := u[i] - cur[i]
				moved += dlt * dlt
				lin += grad[i] * dlt
				quad += dlt * dlt
			}
			if math.Sqrt(moved) < opt.Tol {
				copy(cur, u)
				converged = true
				accepted = true
				break
			}
			if p.Value(u) <= fcur+lin+0.5*omega*quad {
				accepted = true
				break
			}
			omega *= 2
		}
		if !accepted || converged {
			if accepted {
				break
			}
			copy(cur, u)
			break
		}
		copy(cur, u)
		omega *= 0.9
	}
	return Result{X: cur, Value: p.Value(cur), Iterations: iters, Converged: converged}
}
