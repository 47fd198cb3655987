package lrm

// One benchmark per table/figure of the paper (BenchmarkFigureN runs the
// whole sweep at bench scale and reports rows/series on -v), plus the
// ablation benches DESIGN.md calls out and micro-benchmarks of the
// numerical substrate. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// For paper-scale grids use cmd/lrmbench -scale paper.

import (
	"testing"

	"lrm/internal/benchsuite"
	"lrm/internal/compress"
	"lrm/internal/core"
	"lrm/internal/experiments"
	"lrm/internal/hist"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/optimize"
	"lrm/internal/rng"
	"lrm/internal/transform"
	"lrm/internal/workload"
)

func benchConfig() experiments.Config {
	return experiments.Config{Scale: experiments.ScaleBench, Trials: 2, Seed: 1, Dataset: "socialnetwork"}
}

func benchFigure(b *testing.B, fig int) {
	b.Helper()
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Run(fig, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure2 regenerates the γ sweep (error & time vs relaxation).
func BenchmarkFigure2(b *testing.B) { benchFigure(b, 2) }

// BenchmarkFigure3 regenerates the r sweep (error & time vs rank ratio).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFigure4 regenerates error vs domain size on WDiscrete
// (MM/LM/WM/HM/LRM).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFigure5 regenerates error vs domain size on WRange.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFigure6 regenerates error vs domain size on WRelated.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFigure7 regenerates error vs query count on WRange.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, 7) }

// BenchmarkFigure8 regenerates error vs query count on WRelated.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, 8) }

// BenchmarkFigure9 regenerates error vs workload rank parameter s.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, 9) }

// --- Ablation benches (design choices called out in DESIGN.md) ---

func ablationWorkload() *workload.Workload {
	return benchsuite.DecomposeWorkload()
}

func benchDecompose(b *testing.B, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	w := ablationWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.Decompose(w.W, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.ExpectedSSE(1), "sse/eps1")
	}
}

// BenchmarkAblationInnerSolverNesterov measures the paper's Algorithm 2
// inner solver.
func BenchmarkAblationInnerSolverNesterov(b *testing.B) {
	benchDecompose(b, core.Options{Solver: core.SolverNesterov})
}

// BenchmarkAblationInnerSolverPG swaps in plain projected gradient.
func BenchmarkAblationInnerSolverPG(b *testing.B) {
	benchDecompose(b, core.Options{Solver: core.SolverProjectedGradient})
}

// BenchmarkAblationPenaltyAdaptive uses the residual-driven β schedule.
func BenchmarkAblationPenaltyAdaptive(b *testing.B) {
	benchDecompose(b, core.Options{})
}

// BenchmarkAblationPenaltyFixed10 uses the paper's double-every-10
// schedule (Algorithm 1 verbatim).
func BenchmarkAblationPenaltyFixed10(b *testing.B) {
	benchDecompose(b, core.Options{BetaDoubleEvery: 10})
}

// BenchmarkAblationPenaltyFrozen never grows β (the fixed-penalty
// ablation; expect worse feasibility).
func BenchmarkAblationPenaltyFrozen(b *testing.B) {
	benchDecompose(b, core.Options{BetaDoubleEvery: -1})
}

// BenchmarkAblationRestarts1 measures the single-start ALM.
func BenchmarkAblationRestarts1(b *testing.B) {
	benchDecompose(b, core.Options{Restarts: 1})
}

// BenchmarkAblationRestarts4 measures the 4-start ALM (nonconvexity
// hedge; expect ~4× the time and an equal or lower objective).
func BenchmarkAblationRestarts4(b *testing.B) {
	benchDecompose(b, core.Options{Restarts: 4})
}

// BenchmarkAblationL1ProjectionSort measures the Duchi sort-based
// projection.
func BenchmarkAblationL1ProjectionSort(b *testing.B) {
	benchL1(b, optimize.ProjectL1Ball)
}

// BenchmarkAblationL1ProjectionPivot measures the expected-O(n) pivot
// variant used by the inner solver.
func BenchmarkAblationL1ProjectionPivot(b *testing.B) {
	benchL1(b, optimize.ProjectL1BallPivot)
}

func benchL1(b *testing.B, proj func([]float64, float64)) {
	b.Helper()
	src := rng.New(9)
	x := src.NormalVec(4096, 1)
	buf := make([]float64, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		proj(buf, 1)
	}
}

// --- Mechanism answering cost (post-preparation) ---

func benchAnswer(b *testing.B, mech mechanism.Mechanism) {
	b.Helper()
	w := workload.Range(64, 1024, rng.New(21))
	p, err := mech.Prepare(w)
	if err != nil {
		b.Fatal(err)
	}
	x := rng.New(22).UniformVec(1024, 0, 100)
	src := rng.New(23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Answer(x, 0.1, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnswerLaplaceData(b *testing.B)  { benchAnswer(b, mechanism.LaplaceData{}) }
func BenchmarkAnswerWavelet(b *testing.B)      { benchAnswer(b, mechanism.Wavelet{}) }
func BenchmarkAnswerHierarchical(b *testing.B) { benchAnswer(b, mechanism.Hierarchical{}) }

// BenchmarkAnswerLRM pre-refactor baseline (2026-07-26, Xeon 2.70GHz):
// 127236 ns/op, 9984 B/op, 4 allocs/op.
func BenchmarkAnswerLRM(b *testing.B) { benchAnswer(b, mechanism.LRM{}) }

// BenchmarkEngineAnswer measures the engine's cache-hit serving path on
// the BenchmarkAnswerLRM workload. After the first request the engine
// must do no decomposition work: the only costs over the bare Prepared
// are the cache lookup and the answer-batch bookkeeping. Baseline
// (2026-07-26, Xeon 2.70GHz): engine 68071 ns/op, 536 B/op, 2 allocs/op
// vs bare Prepared 56918 ns/op, 516 B/op, 1 allocs/op. Since the engine
// answers B = 1 through the same AnswerMany call as any batch (the
// histogram wrapped as an n×1 matrix, an m×1 result), it costs 2040
// B/op in 8 allocs/op at an unchanged ns/op.
func BenchmarkEngineAnswer(b *testing.B) {
	e, req, err := benchsuite.EngineAnswerSetup()
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Answer(req); err != nil { // warm the cache: one Prepare
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Answer(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := e.Stats(); st.Prepares != 1 {
		b.Fatalf("cache-hit path ran %d prepares, want 1", st.Prepares)
	}
}

// BenchmarkEngineAnswerMany measures the multi-RHS serving path: one
// unseeded request carrying 64 histograms over the BenchmarkAnswerLRM
// workload, answered as packed multi-RHS GEMMs (the acceptance bar is
// ≥2× the throughput of BenchmarkEngineAnswerSeq64, which pushes the
// same 64 histograms through 64 sequential single-histogram requests).
func BenchmarkEngineAnswerMany(b *testing.B) {
	e, req, err := benchsuite.EngineAnswerManySetup()
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Answer(req); err != nil { // warm the cache: one Prepare
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Answer(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.Stats()
	if st.Prepares != 1 {
		b.Fatalf("cache-hit path ran %d prepares, want 1", st.Prepares)
	}
	if st.Batched != st.Requests {
		b.Fatalf("%d of %d requests took the batched path, want all", st.Batched, st.Requests)
	}
}

// BenchmarkEngineAnswerSeq64 is BenchmarkEngineAnswerMany's sequential
// baseline: the identical 64 histograms answered one engine request at a
// time. Per-op time is for all 64, so the two benchmarks compare
// directly.
func BenchmarkEngineAnswerSeq64(b *testing.B) {
	e, req, err := benchsuite.EngineAnswerManySetup()
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Answer(req); err != nil { // warm the cache: one Prepare
		b.Fatal(err)
	}
	one := req
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range req.Histograms {
			one.Histograms = [][]float64{x}
			if _, err := e.Answer(one); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if st := e.Stats(); st.Prepares != 1 {
		b.Fatalf("cache-hit path ran %d prepares, want 1", st.Prepares)
	}
}

// --- Numerical substrate micro-benchmarks ---

// BenchmarkMatMul256 measures the workspace product kernel the hot loops
// use: MulTo into a reused destination. Baselines on this repo's Xeon
// 2.70GHz container: allocating mat.Mul 6.42 ms (pre-PR-1), row-streaming
// MulTo 5.33 ms (pre-PR-3), cache-blocked packed GEMM 1.04 ms.
func BenchmarkMatMul256(b *testing.B) { benchMatMulN(b, 256) }

// benchMatMulN measures the square MulTo product at size n into a reused
// destination, the shape the GEMM dispatcher is tuned for. Operands come
// from internal/benchsuite so cmd/lrmbench's -json trajectory measures
// the identical product.
func benchMatMulN(b *testing.B, n int) {
	b.Helper()
	x, y, dst := benchsuite.MatMulOperands(n)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulTo(dst, x, y)
	}
}

// BenchmarkMatMul512 is the tentpole kernel size for the cache-blocked
// packed GEMM: big enough that B (2 MB) no longer fits L2, so the
// row-streaming kernel pays the full re-fetch cost per output row.
func BenchmarkMatMul512(b *testing.B) { benchMatMulN(b, 512) }

// BenchmarkMatMul1024 stresses the panel packing at L3 scale.
func BenchmarkMatMul1024(b *testing.B) { benchMatMulN(b, 1024) }

// BenchmarkDecomposeBench is the end-to-end ALM wall-time trajectory
// benchmark: the default Decompose on the ablation workload, the number
// every perf PR must not regress (see cmd/lrmbench -json).
func BenchmarkDecomposeBench(b *testing.B) {
	benchDecompose(b, core.Options{})
}

// BenchmarkPlan measures the adaptive planner end to end on the
// benchsuite planning workloads: one op plans the low-rank decompose
// workload (analysis + scoring + the winning lrm candidate's full ALM,
// reusing the analysis SVD) and the full-rank WDiscrete workload (LRM
// skipped by the regime gate; the decision costs only the analysis and
// the baselines' closed forms). Tier-1 gated via cmd/lrmbench -compare:
// planner overhead on top of DecomposeBench is the adaptive layer's
// price and must not drift.
func BenchmarkPlan(b *testing.B) {
	wl := benchsuite.PlanLowRankWorkload()
	wf := benchsuite.PlanFullRankWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := Plan(wl, PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if pl.Mechanism != "lrm" {
			b.Fatalf("low-rank plan chose %s", pl.Mechanism)
		}
		pf, err := Plan(wf, PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if pf.Mechanism == "lrm" {
			b.Fatal("full-rank plan chose lrm")
		}
	}
}

// BenchmarkImplicitPlan measures the structure-aware planning path: a
// Kronecker spec whose assembled matrix would hold 10⁶ cells is planned
// and prepared end to end — closed-form analysis, candidate scoring,
// and the winner's preparation — without ever materializing W. Its cost
// should stay orders of magnitude below BenchmarkPlan's SVD-dominated
// profile, and its allocation footprint must not scale with m·n.
func BenchmarkImplicitPlan(b *testing.B) {
	s := benchsuite.ImplicitPlanSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := PlanSpec(s, PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if pl.Prepared() == nil {
			b.Fatal("implicit plan retained no prepared mechanism")
		}
	}
}

// BenchmarkSpecPrepareLRM measures the fixed-LRM preparation of a
// Kronecker spec: the spec-batch serving workload's first-request cost
// on `lrmserve -mech lrm`. kron:prefix(32)xprefix(32) is full rank, so
// the planner skips lrm and BenchmarkImplicitPlan never reaches this
// path. Its two factors are the same matrix, so one op is one ALM run.
func BenchmarkSpecPrepareLRM(b *testing.B) {
	s := benchsuite.ImplicitPlanSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mechanism.PrepareSpec(mechanism.LRM{}, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul256Alloc keeps the old allocating-path measurement for
// comparison against BenchmarkMatMul256.
func BenchmarkMatMul256Alloc(b *testing.B) {
	src := rng.New(31)
	x := mat.NewFromData(256, 256, src.NormalVec(256*256, 1))
	y := mat.NewFromData(256, 256, src.NormalVec(256*256, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Mul(x, y)
	}
}

func BenchmarkSVD128x256(b *testing.B) {
	src := rng.New(32)
	w := mat.NewFromData(128, 256, src.NormalVec(128*256, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.FactorSVD(w)
	}
}

func BenchmarkCholeskySolve128(b *testing.B) {
	src := rng.New(33)
	a := mat.NewFromData(160, 128, src.NormalVec(160*128, 1))
	spd := mat.Gram(a)
	rhs := mat.NewFromData(64, 128, src.NormalVec(64*128, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mat.SolveRightSPDTo(mat.New(64, 128), rhs, spd, mat.New(128, 128)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches (related/future-work mechanisms; DESIGN.md
// §Extensions) ---

// BenchmarkExtraSynopses regenerates the extension table comparing the
// data-synopsis mechanisms (FPA/CM/NF/SF) with LM, NOR+proj and LRM.
func BenchmarkExtraSynopses(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Synopses(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationInitExactSVD measures the default exact-SVD starting
// point on the low-rank regime.
func BenchmarkAblationInitExactSVD(b *testing.B) {
	benchDecompose(b, core.Options{})
}

// BenchmarkAblationInitRandomized swaps in the randomized range-finder
// init (mat.RandSVD); on low-rank workloads it should match the objective
// at lower preparation cost.
func BenchmarkAblationInitRandomized(b *testing.B) {
	benchDecompose(b, core.Options{RandomizedInit: true})
}

func benchSynopsisAnswer(b *testing.B, mech mechanism.Mechanism) {
	b.Helper()
	w := workload.Identity(1024)
	p, err := mech.Prepare(w)
	if err != nil {
		b.Fatal(err)
	}
	x := rng.New(41).UniformVec(1024, 0, 100)
	src := rng.New(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Answer(x, 0.1, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnswerFourier(b *testing.B) { benchSynopsisAnswer(b, mechanism.Fourier{K: 64}) }
func BenchmarkAnswerCompressive(b *testing.B) {
	benchSynopsisAnswer(b, mechanism.Compressive{Measurements: 128, Sparsity: 16, Seed: 1})
}
func BenchmarkAnswerHistogramNF(b *testing.B) {
	benchSynopsisAnswer(b, mechanism.Histogram{Buckets: 64})
}

// BenchmarkRandSVDLowRank measures the randomized SVD on the WRelated
// regime against BenchmarkSVD128x256's exact Jacobi cost.
func BenchmarkRandSVDLowRank(b *testing.B) {
	w := workload.Related(128, 256, 8, rng.New(34)).W
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.RandSVD(w, 8, mat.RandSVDOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT4096 measures the unitary FFT on a 4096-point histogram.
func BenchmarkFFT4096(b *testing.B) {
	x := rng.New(37).NormalVec(4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform.FFTReal(x)
	}
}

// BenchmarkHaar4096 measures the orthonormal Haar transform.
func BenchmarkHaar4096(b *testing.B) {
	x := rng.New(38).NormalVec(4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transform.Haar(x)
	}
}

// BenchmarkOMP measures sparse recovery of 16 atoms from 128 Gaussian
// measurements over a 1024 dictionary.
func BenchmarkOMP(b *testing.B) {
	src := rng.New(39)
	k, n := 128, 1024
	a := mat.NewFromData(k, n, src.NormalVec(k*n, 1))
	truth := make([]float64, n)
	for j := 0; j < 16; j++ {
		truth[src.Intn(n)] = src.Normal() * 10
	}
	y := mat.MulVec(a, truth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress.OMP(a, y, 16, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVOptimal measures the O(n²B) histogram DP at the default
// extension-table size.
func BenchmarkVOptimal(b *testing.B) {
	x := rng.New(40).UniformVec(512, 0, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hist.VOptimal(x, 32); err != nil {
			b.Fatal(err)
		}
	}
}
