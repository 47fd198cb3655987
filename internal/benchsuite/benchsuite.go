// Package benchsuite pins the operand definitions shared by the root
// package's go-test benchmarks (BenchmarkMatMulN, BenchmarkDecomposeBench,
// BenchmarkEngineAnswer) and cmd/lrmbench's -json perf-trajectory suite.
// Both front ends construct their workloads here, so the committed
// BENCH_*.json trajectory always measures exactly the code path of the
// identically named go benchmark — they cannot silently diverge.
package benchsuite

import (
	"lrm/internal/engine"
	"lrm/internal/mat"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// MatMulSizes are the square GEMM sizes the perf trajectory tracks.
var MatMulSizes = []int{256, 512, 1024}

// MatMulOperands returns the canonical n×n operands and a reusable
// destination for the BenchmarkMatMulN family.
func MatMulOperands(n int) (x, y, dst *mat.Dense) {
	src := rng.New(31)
	x = mat.NewFromData(n, n, src.NormalVec(n*n, 1))
	y = mat.NewFromData(n, n, src.NormalVec(n*n, 1))
	return x, y, mat.New(n, n)
}

// DecomposeWorkload returns the ablation workload BenchmarkDecomposeBench
// (and the ablation benches) decompose end to end.
func DecomposeWorkload() *workload.Workload {
	return workload.Related(64, 128, 8, rng.New(5))
}

// EngineAnswerSetup builds the engine and cache-hit request of
// BenchmarkEngineAnswer. The caller owns the engine (Close it) and must
// issue the request once to warm the cache before timing.
func EngineAnswerSetup() (*engine.Engine, engine.Request, error) {
	e, err := engine.New(engine.Options{})
	if err != nil {
		return nil, engine.Request{}, err
	}
	w := workload.Range(64, 1024, rng.New(21))
	x := rng.New(22).UniformVec(1024, 0, 100)
	return e, engine.Request{Workload: w, Histograms: [][]float64{x}, Eps: 0.1, Seed: 23}, nil
}

// PlanLowRankWorkload is BenchmarkPlan's expensive input: the same
// low-rank workload DecomposeWorkload pins, planned end to end — the
// analysis SVD, candidate scoring, and the winning lrm candidate's full
// ALM preparation (reusing that SVD). Its cost should track
// DecomposeBench plus one factorization.
func PlanLowRankWorkload() *workload.Workload {
	return DecomposeWorkload()
}

// PlanFullRankWorkload is BenchmarkPlan's cheap input: a dense ±1
// WDiscrete batch (p = 0.5, full rank almost surely — the paper's sparse
// p = 0.02 setting collapses to low rank at this size because rows with
// no +1 are identical), where the planner skips the lrm candidate
// (Section 4 regime gate) and decides between the baselines from closed
// forms alone — so its cost is essentially the analysis SVD.
func PlanFullRankWorkload() *workload.Workload {
	return workload.Discrete(48, 64, 0.5, rng.New(6))
}

// ImplicitPlanSpec returns BenchmarkImplicitPlan's input: a Kronecker
// spec of two prefix workloads whose product has 10⁶ matrix cells
// (1024×1024 assembled) — large enough that materializing W would
// dominate the profile, so the benchmark pins the structure-only cost
// of plan + prepare: closed-form analysis, candidate scoring, and the
// winner's preparation, no m×n allocation anywhere.
func ImplicitPlanSpec() workload.Spec {
	s, err := workload.ParseSpec("kron:prefix(32)xprefix(32)")
	if err != nil {
		panic(err) // the literal above is a test fixture; it cannot fail
	}
	return s
}

// EngineAnswerManyBatch is the batch width of BenchmarkEngineAnswerMany:
// one request carrying this many histograms over the BenchmarkEngineAnswer
// workload.
const EngineAnswerManyBatch = 64

// EngineAnswerManySetup builds the engine and the unseeded batch request
// of BenchmarkEngineAnswerMany, answered by the LRM's multi-RHS path.
// The caller owns the engine and must issue the
// request once to warm the cache before timing. The sequential baseline
// (BenchmarkEngineAnswerSeq64) answers the same histograms through the
// same engine one request at a time.
func EngineAnswerManySetup() (*engine.Engine, engine.Request, error) {
	e, err := engine.New(engine.Options{})
	if err != nil {
		return nil, engine.Request{}, err
	}
	w := workload.Range(64, 1024, rng.New(21))
	xs := make([][]float64, EngineAnswerManyBatch)
	for i := range xs {
		xs[i] = rng.New(int64(22+i)).UniformVec(1024, 0, 100)
	}
	return e, engine.Request{Workload: w, Histograms: xs, Eps: 0.1}, nil
}
