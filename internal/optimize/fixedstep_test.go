package optimize

import (
	"fmt"
	"math"
	"testing"

	"lrm/internal/rng"
)

// nesterovFixedReference is the fixed-Lipschitz branch of NesterovPG as
// it stood before the iterate buffers rotated: two full copies per step
// and a separate pass for the stopping norm. It is kept verbatim as the
// oracle that the rotated, fused loop must reproduce bit for bit.
func nesterovFixedReference(p Problem, x0 []float64, opt NesterovOptions) Result {
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
	cur := make([]float64, d)
	copy(cur, x0)
	if p.Project != nil {
		p.Project(cur)
	}
	prev := make([]float64, d)
	copy(prev, cur)
	s := make([]float64, d)
	grad := make([]float64, d)
	u := make([]float64, d)
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
		for i := range u {
			u[i] = s[i] - grad[i]/omega
		}
		if p.Project != nil {
			p.Project(u)
		}
		var moved float64
		for i := range u {
			dlt := u[i] - s[i]
			moved += dlt * dlt
		}
		copy(prev, cur)
		copy(cur, u)
		if math.Sqrt(moved) < opt.Tol {
			converged = true
			break
		}
		deltaPrev, delta = delta, (1+math.Sqrt(1+4*delta*delta))/2
	}
	return Result{X: cur, Value: p.Value(cur), Iterations: iters, Converged: converged}
}

// lrmSubproblem builds the shape of the ALM's L-subproblem: the r×n
// quadratic G(L) = β/2·tr(LᵀML) − tr(KᵀL) with M = AᵀA positive
// semidefinite, over per-column unit L1 balls. It returns the problem
// and a certified Lipschitz bound β·‖M‖_F.
func lrmSubproblem(r, n int, beta float64, seed int64) (Problem, float64) {
	src := rng.New(seed)
	a := src.NormalVec(r*r, 1)
	m := make([]float64, r*r)
	var frob float64
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			var v float64
			for t := 0; t < r; t++ {
				v += a[t*r+i] * a[t*r+j]
			}
			m[i*r+j] = v
			frob += v * v
		}
	}
	k := src.NormalVec(r*n, 3)
	mx := make([]float64, r*n)
	mul := func(x []float64) {
		for i := 0; i < r; i++ {
			for j := 0; j < n; j++ {
				var v float64
				for t := 0; t < r; t++ {
					v += m[i*r+t] * x[t*n+j]
				}
				mx[i*n+j] = v
			}
		}
	}
	scratch := make([]float64, 2*r+n)
	return Problem{
		Dim: r * n,
		Value: func(x []float64) float64 {
			mul(x)
			var q, l float64
			for i, v := range x {
				q += v * mx[i]
				l += k[i] * v
			}
			return 0.5*beta*q - l
		},
		Grad: func(x, g []float64) {
			mul(x)
			for i := range g {
				g[i] = beta*mx[i] - k[i]
			}
		},
		Project: func(x []float64) { ProjectColumnsL1Buf(x, r, n, 1, scratch) },
	}, beta*math.Sqrt(frob) + 1e-12
}

// TestNesterovFixedMatchesReference pins the fixed-Lipschitz loop to the
// reference: the same X bits, Value, Iterations and Converged, whether it
// stops on the tolerance or on MaxIter (including MaxIter = 1), with and
// without a workspace, and without a projection.
func TestNesterovFixedMatchesReference(t *testing.T) {
	for _, c := range []struct {
		r, n    int
		beta    float64
		maxIter int
		tol     float64
		project bool
	}{
		{10, 128, 10, 50, 0, true},
		{10, 128, 1e4, 50, 0, true},
		{5, 32, 10, 1, 0, true},
		{5, 32, 10, 2, 0, true},
		{5, 32, 10, 300, 1e-2, true}, // stops on the tolerance
		{3, 8, 0.5, 1000, 0, true},   // stops on the default tolerance
		{4, 16, 10, 40, 1e-3, false}, // unconstrained
		{6, 24, 100, 0, 0, true},     // default MaxIter
		{6, 24, 100, -1, 0, true},    // no iterations at all
	} {
		name := fmt.Sprintf("r%d_n%d_beta%g_iter%d_tol%g_proj%v", c.r, c.n, c.beta, c.maxIter, c.tol, c.project)
		p, lip := lrmSubproblem(c.r, c.n, c.beta, int64(c.r*c.n))
		if !c.project {
			p.Project = nil
		}
		x0 := rng.New(int64(c.n)).NormalVec(c.r*c.n, 0.2)
		opt := NesterovOptions{MaxIter: c.maxIter, Tol: c.tol, Lipschitz0: lip, FixedLipschitz: true}
		want := nesterovFixedReference(p, x0, opt)

		for _, work := range []*Workspace{nil, NewWorkspace()} {
			opt.Work = work
			for rep := 0; rep < 2; rep++ { // a reused workspace must not leak state
				got := NesterovPG(p, x0, opt)
				if got.Iterations != want.Iterations || got.Converged != want.Converged ||
					math.Float64bits(got.Value) != math.Float64bits(want.Value) {
					t.Fatalf("%s: got iters=%d conv=%v value=%v, reference iters=%d conv=%v value=%v",
						name, got.Iterations, got.Converged, got.Value, want.Iterations, want.Converged, want.Value)
				}
				for i := range want.X {
					if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
						t.Fatalf("%s: X[%d] = %v, reference %v", name, i, got.X[i], want.X[i])
					}
				}
				if work != nil {
					work.Put(got.X)
				}
			}
		}
	}
}

// TestProjectColumnsL1BufMatchesPerColumn pins the row-major norm pass
// to the per-column projection: every column of the result equals
// ProjectL1BallPivot on that column alone, bit for bit. The matrix mixes
// infeasible columns, columns exactly at the radius (one only in
// ascending summation order), an all-zero column and a NaN column;
// radius 0 and an all-feasible matrix are covered too.
func TestProjectColumnsL1BufMatchesPerColumn(t *testing.T) {
	const rows, cols = 6, 11
	src := rng.New(41)
	mixed := src.NormalVec(rows*cols, 1)
	atRadius := []float64{0.25, -0.5, 0.125, 0, -0.0625, 0.0625} // L1 norm exactly 1
	for i, v := range atRadius {
		mixed[i*cols+3] = v
		mixed[i*cols+5] = 0
	}
	// Summed in ascending row order this column's norm rounds to exactly
	// 1 (each 2⁻⁵³ is a tie that rounds to even); summed bottom-up it is
	// 1+2⁻⁵², and the projection would then shrink every entry.
	tiny := math.Ldexp(1, -53)
	for i, v := range []float64{1, -tiny, tiny, 0, 0, 0} {
		mixed[i*cols+9] = v
	}
	mixed[2*cols+7] = math.NaN()
	feasible := src.NormalVec(rows*cols, 0.01)

	for _, c := range []struct {
		name   string
		data   []float64
		radius float64
	}{
		{"mixed r=1", mixed, 1},
		{"mixed r=2.5", mixed, 2.5},
		{"mixed r=0", mixed, 0},
		{"all feasible", feasible, 1},
	} {
		got := append([]float64(nil), c.data...)
		ProjectColumnsL1Buf(got, rows, cols, c.radius, make([]float64, 2*rows+cols))
		for j := 0; j < cols; j++ {
			col := make([]float64, rows)
			for i := range col {
				col[i] = c.data[i*cols+j]
			}
			ProjectL1BallPivot(col, c.radius)
			for i, v := range col {
				if math.Float64bits(got[i*cols+j]) != math.Float64bits(v) {
					t.Fatalf("%s: (%d,%d) = %v, per-column projection %v", c.name, i, j, got[i*cols+j], v)
				}
			}
		}
	}
	got := append([]float64(nil), feasible...)
	ProjectColumnsL1Buf(got, rows, cols, 1, make([]float64, 2*rows+cols))
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(feasible[i]) {
			t.Fatalf("all-feasible matrix changed at %d", i)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("scratch shorter than 2·rows+cols accepted")
		}
	}()
	ProjectColumnsL1Buf(append([]float64(nil), mixed...), rows, cols, 1, make([]float64, 2*rows+cols-1))
}
