package mechanism

import (
	"fmt"

	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Hierarchical is the paper's HM baseline: the Boost method of Hay,
// Rastogi, Miklau and Suciu (PVLDB 2010). Noisy counts are released for
// every node of a b-ary tree over the domain (each level costs ε/ℓ), then
// the counts are made mutually consistent by the closed-form least-squares
// estimate (their two-pass algorithm), which provably reduces variance.
// Range-query error grows polylogarithmically in the domain size.
type Hierarchical struct {
	// Branch is the tree fanout b (default 2).
	Branch int
}

// Name implements Mechanism.
func (Hierarchical) Name() string { return "HM" }

// Prepare implements Mechanism.
func (h Hierarchical) Prepare(w *workload.Workload) (Prepared, error) {
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("mechanism: nil workload")
	}
	b := h.Branch
	if b == 0 {
		b = 2
	}
	if b < 2 {
		return nil, fmt.Errorf("mechanism: hierarchical branch %d < 2", b)
	}
	n := w.Domain()
	padded, levels := 1, 1
	for padded < n {
		padded *= b
		levels++
	}
	return &hierarchicalPrepared{w: w, n: n, padded: padded, levels: levels, b: b}, nil
}

type hierarchicalPrepared struct {
	w      *workload.Workload
	n      int
	padded int // b^(levels−1)
	levels int // ℓ, counting root and leaves
	b      int
}

// Answer implements Prepared.
func (p *hierarchicalPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if len(x) != p.n {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.n)
	}
	b := p.b
	// Nodes in heap-like order for a b-ary tree: level ℓ has b^ℓ nodes,
	// stored level by level; levelStart[ℓ] indexes the first.
	levelStart := make([]int, p.levels+1)
	total := 0
	for lev := 0; lev < p.levels; lev++ {
		levelStart[lev] = total
		total += pow(b, lev)
	}
	levelStart[p.levels] = total

	// Exact subtree sums bottom-up.
	sums := make([]float64, total)
	leafBase := levelStart[p.levels-1]
	for i := 0; i < p.n; i++ {
		sums[leafBase+i] = x[i]
	}
	for lev := p.levels - 2; lev >= 0; lev-- {
		for i := 0; i < pow(b, lev); i++ {
			var s float64
			for c := 0; c < b; c++ {
				s += sums[levelStart[lev+1]+i*b+c]
			}
			sums[levelStart[lev]+i] = s
		}
	}

	// Each record appears in ℓ node counts, so the node counts have L1
	// sensitivity ℓ.
	if err := privacy.AddLaplaceNoise(sums, float64(p.levels), eps, src); err != nil {
		return nil, err
	}

	xhat := p.consistency(sums, levelStart)
	return p.w.Answer(xhat[:p.n]), nil
}

// consistency runs Hay et al.'s two-pass least-squares estimate and
// returns the consistent leaf counts.
func (p *hierarchicalPrepared) consistency(z []float64, levelStart []int) []float64 {
	b := p.b
	total := levelStart[p.levels]
	zbar := make([]float64, total)
	// Bottom-up pass. Height i counts leaves as height 1.
	leafBase := levelStart[p.levels-1]
	for i := leafBase; i < total; i++ {
		zbar[i] = z[i]
	}
	for lev := p.levels - 2; lev >= 0; lev-- {
		height := p.levels - lev // root has the largest height
		bi := float64(pow(b, height))
		bi1 := float64(pow(b, height-1))
		wOwn := (bi - bi1) / (bi - 1)
		wKids := (bi1 - 1) / (bi - 1)
		for i := 0; i < pow(b, lev); i++ {
			var kids float64
			for c := 0; c < b; c++ {
				kids += zbar[levelStart[lev+1]+i*b+c]
			}
			zbar[levelStart[lev]+i] = wOwn*z[levelStart[lev]+i] + wKids*kids
		}
	}
	// Top-down pass.
	xbar := make([]float64, total)
	xbar[0] = zbar[0]
	for lev := 1; lev < p.levels; lev++ {
		for parent := 0; parent < pow(b, lev-1); parent++ {
			var sibs float64
			for c := 0; c < b; c++ {
				sibs += zbar[levelStart[lev]+parent*b+c]
			}
			adj := (xbar[levelStart[lev-1]+parent] - sibs) / float64(b)
			for c := 0; c < b; c++ {
				idx := levelStart[lev] + parent*b + c
				xbar[idx] = zbar[idx] + adj
			}
		}
	}
	return xbar[leafBase:]
}

// ExpectedSSE implements Prepared; no closed form is implemented for the
// post-consistency error (the experiments measure it by Monte Carlo).
func (p *hierarchicalPrepared) ExpectedSSE(privacy.Epsilon) float64 {
	return NoAnalyticSSE()
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
