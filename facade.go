package lrm

import (
	"lrm/internal/compress"
	"lrm/internal/core"
	"lrm/internal/dataset"
	"lrm/internal/engine"
	"lrm/internal/hist"
	"lrm/internal/infer"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/metrics"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// The root package is a facade: it aliases the library's internal types
// so downstream users get one import path ("lrm") with a compact surface,
// while the implementation stays factored into internal/ subsystems.

// Matrix is a dense row-major matrix (see NewMatrix, MatrixFromRows).
type Matrix = mat.Dense

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// MatrixFromRows builds a matrix from rows, copying them.
func MatrixFromRows(rows [][]float64) *Matrix { return mat.FromRows(rows) }

// Workload is a batch of linear counting queries (its W field is m×n).
type Workload = workload.Workload

// Workload generators (the paper's three synthetic families plus common
// extras).
var (
	DiscreteWorkload    = workload.Discrete
	RangeWorkload       = workload.Range
	RelatedWorkload     = workload.Related
	IdentityWorkload    = workload.Identity
	PrefixWorkload      = workload.Prefix
	MarginalWorkload    = workload.Marginal
	TotalWorkload       = workload.Total
	WorkloadFromMatrix  = workload.FromMatrix
	Range2DWorkload     = workload.Range2D
	KronWorkload        = workload.Kron
	PermutationWorkload = workload.PermutationWorkload
)

// WorkloadSpec is an implicit workload: the structural description of a
// query batch (prefix sums, range queries, marginals, Kronecker
// products) exposing answers, Gram products, sensitivity, and a stable
// digest WITHOUT ever materializing the m×n matrix. Specs flow through
// the same pipeline as dense workloads — AnalyzeSpec, PlanSpec,
// EngineRequest.Spec — so a 2²⁰×2²⁰ product plans and answers in
// megabytes, not terabytes. A dense Workload adapts into the spec world
// via AsWorkloadSpec; that adapter is also the migration path for any
// call site that still builds matrices.
type WorkloadSpec = workload.Spec

// Implicit workload constructors. NewKronSpec composes any specs —
// including dense adapters — into their Kronecker product.
var (
	NewPrefixSpec    = workload.NewPrefixSpec
	NewAllRangesSpec = workload.NewAllRangesSpec
	NewIdentitySpec  = workload.NewIdentitySpec
	NewTotalSpec     = workload.NewTotalSpec
	NewKronSpec      = workload.NewKronSpec
	NewMarginalSpec  = workload.NewMarginalSpec
)

// AsWorkloadSpec wraps a dense Workload as a WorkloadSpec (the adapter
// direction); MaterializeSpec converts the other way, refusing to build
// more than maxCells matrix cells.
var (
	AsWorkloadSpec  = workload.AsSpec
	MaterializeSpec = workload.MaterializeSpec
)

// ParseWorkloadSpec parses the compact spec grammar shared by the CLIs:
// "prefix(1024)", "ranges(256)", "marginals(2,2,2,2;k=2)", and
// Kronecker products like "kron:prefix(1024)xprefix(1024)".
var ParseWorkloadSpec = workload.ParseSpec

// SpecFingerprint is the engine cache key for an implicit workload
// ("spec-" + the spec's digest, disjoint from dense fingerprints).
var SpecFingerprint = workload.SpecFingerprint

// AnalyzeWorkload summarizes the properties that decide which mechanism
// will serve a workload well (rank, sensitivity, baseline comparison).
var AnalyzeWorkload = workload.Analyze

// AnalyzeSpec computes the same Stats from a spec's structure alone:
// closed-form spectra where they exist (prefix, ranges, marginals),
// factor products for Kronecker specs, and a matrix-free Lanczos
// estimate otherwise.
var AnalyzeSpec = workload.AnalyzeSpec

// WorkloadStats is the summary returned by AnalyzeWorkload.
type WorkloadStats = workload.Stats

// Dataset is a histogram of unit counts.
type Dataset = dataset.Dataset

// Synthetic stand-ins for the paper's evaluation datasets.
var (
	SearchLogs    = dataset.SearchLogs
	NetTrace      = dataset.NetTrace
	SocialNetwork = dataset.SocialNetwork
	DatasetByName = dataset.ByName
)

// Epsilon is a differential-privacy budget.
type Epsilon = privacy.Epsilon

// Budget tracks sequential composition of privacy spends.
type Budget = privacy.Budget

// NewBudget returns a budget with the given total ε.
var NewBudget = privacy.NewBudget

// Source is a seeded random source; all mechanisms take one explicitly so
// releases are reproducible.
type Source = rng.Source

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source { return rng.New(seed) }

// DecomposeOptions configures the workload decomposition; the zero value
// is the paper's defaults (r = 1.2·rank(W), γ = 1e-4·‖W‖_F).
type DecomposeOptions = core.Options

// Decomposition is the optimized factorization W ≈ B·L.
type Decomposition = core.Decomposition

// Decompose runs the ALM workload decomposition (Algorithm 1).
var Decompose = core.Decompose

// TuneRank sweeps the inner dimension r over multiples of rank(W) and
// returns the best rank (the programmatic form of the paper's Figure 3
// guidance).
var TuneRank = core.TuneRank

// RankTrial reports one candidate rank from TuneRank.
type RankTrial = core.RankTrial

// ReadDecomposition restores a decomposition persisted with
// (*Decomposition).Encode, so the one-off optimization can be reused
// across processes.
var ReadDecomposition = core.ReadDecomposition

// NewLRMMechanism wraps a decomposition as a query-answering mechanism
// (Eq. 6 of the paper).
var NewLRMMechanism = core.NewMechanism

// Bounds carries the paper's optimality analysis (Lemmas 3–4, Theorem 2)
// for a workload. Its Lower is Lemma 4's asymptotic form, Ω constant
// dropped: not a valid lower bound.
type Bounds = core.Bounds

// AnalyzeBounds computes Lemma 3's error upper bound for a workload
// matrix, and Lemma 4's asymptotic form (Ω constant dropped: not a valid
// lower bound).
var AnalyzeBounds = core.AnalyzeBounds

// Mechanism is the shared interface of all query-answering mechanisms.
type Mechanism = mechanism.Mechanism

// Prepared is a mechanism bound to one workload, ready to answer.
type Prepared = mechanism.Prepared

// BatchAnswerer is the optional multi-RHS extension of Prepared: answer
// B histograms (the columns of an n×B matrix) in one call, computed as
// packed multi-RHS GEMMs. It draws the same noise in the same order as
// looping Answer, and each column equals the loop's to within
// floating-point rounding (bit for bit when B = 1).
type BatchAnswerer = mechanism.BatchAnswerer

// AnswerMany answers every column of an n×B data matrix through p,
// using its native multi-RHS path when it has one and a per-column loop
// otherwise. The result is m×B, releases as columns.
var AnswerMany = mechanism.AnswerMany

// The mechanisms evaluated in the paper.
type (
	// LRM is the Low-Rank Mechanism (the paper's contribution).
	LRM = mechanism.LRM
	// LaplaceData is LM: Laplace noise on the unit counts.
	LaplaceData = mechanism.LaplaceData
	// LaplaceResults is NOR: Laplace noise on the query answers.
	LaplaceResults = mechanism.LaplaceResults
	// Wavelet is WM: the Privelet wavelet mechanism.
	Wavelet = mechanism.Wavelet
	// Hierarchical is HM: the Boost tree mechanism with consistency.
	Hierarchical = mechanism.Hierarchical
	// MatrixMechanism is MM: Li et al.'s mechanism, Appendix-B form.
	MatrixMechanism = mechanism.MatrixMechanism
)

// Mechanisms from the paper's related and future work, implemented as
// extensions (see DESIGN.md §Extensions).
type (
	// Fourier is FPA: the Fourier perturbation algorithm of Rastogi and
	// Nath (the paper's reference [24]).
	Fourier = mechanism.Fourier
	// Compressive is CM: the compressive mechanism of Li et al. (the
	// paper's reference [17]).
	Compressive = mechanism.Compressive
	// Histogram is NF/SF: the bucketized DP histograms of Xu et al. (the
	// paper's reference [29]).
	Histogram = mechanism.Histogram
	// Consistent wraps any mechanism with a free consistency projection
	// onto the workload's column space.
	Consistent = mechanism.Consistent
)

// Histogram-publication primitives underlying the Histogram mechanism.
var (
	// VOptimalHistogram computes the exact B-bucket v-optimal histogram.
	VOptimalHistogram = hist.VOptimal
	// NoiseFirstHistogram publishes an ε-DP histogram, noise before
	// structure.
	NoiseFirstHistogram = hist.NoiseFirst
	// StructureFirstHistogram publishes an ε-DP histogram, structure
	// before noise.
	StructureFirstHistogram = hist.StructureFirst
)

// StructureFirstOptions configures StructureFirstHistogram.
type StructureFirstOptions = hist.StructureFirstOptions

// CompressiveSynopsis is the reusable measurement/reconstruction pipeline
// underlying the Compressive mechanism.
type CompressiveSynopsis = compress.Synopsis

// NewCompressiveSynopsis builds a synopsis for a power-of-two domain.
var NewCompressiveSynopsis = compress.NewSynopsis

// Post-processing utilities (free under DP; they only reduce error).
var (
	// LeastSquaresEstimate recovers a histogram from noisy strategy
	// observations.
	LeastSquaresEstimate = infer.LeastSquaresEstimate
	// NewProjector builds a consistency projector onto col(W).
	NewProjector = infer.NewProjector
	// NonNegative clamps negative counts to zero.
	NonNegative = infer.NonNegative
	// RoundCounts rounds to the nearest non-negative integers.
	RoundCounts = infer.RoundCounts
)

// Additional ε-DP primitives beyond the batch-query mechanisms.
var (
	// ExponentialMechanism selects from scored candidates under ε-DP.
	ExponentialMechanism = privacy.ExponentialMechanism
	// GeometricMechanism adds two-sided geometric noise to an integer.
	GeometricMechanism = privacy.GeometricMechanism
	// AdvancedComposition accounts k-fold composition tightly.
	AdvancedComposition = privacy.AdvancedComposition
	// Sensitivity computes the L1 sensitivity of a query matrix.
	Sensitivity = privacy.Sensitivity
)

// Explicit strategy-matrix constructors (the dense equivalents of the
// wavelet and hierarchical mechanisms).
var (
	HaarStrategy = mechanism.HaarStrategy
	TreeStrategy = mechanism.TreeStrategy
)

// NewStrategyMechanism answers a workload through an arbitrary strategy
// matrix A (the matrix-mechanism template).
var NewStrategyMechanism = mechanism.NewStrategyPrepared

// Measurement reports a mechanism's measured accuracy and timing.
type Measurement = metrics.Measurement

// Evaluate measures a mechanism's average squared error on a workload by
// Monte Carlo, as in the paper's experiments.
var Evaluate = metrics.Evaluate

// Engine is the serving layer: a long-lived, goroutine-safe answering
// service that caches prepared workloads (LRU + singleflight), persists
// LRM decompositions to a cache directory, and answers every request —
// one histogram or many — as a single multi-RHS AnswerMany call (the
// mechanism's packed-GEMM path, or a per-histogram loop for mechanisms
// without one) with per-request budget accounting. With
// EngineOptions.Planner set it plans each workload adaptively (see Plan)
// and caches the decisions alongside the preparations. See
// internal/engine for the full semantics and cmd/lrmserve for the HTTP
// front end.
type Engine = engine.Engine

// EngineOptions configures NewEngine; the zero value serves the LRM with
// an in-memory cache.
type EngineOptions = engine.Options

// EngineRequest is one Engine.Answer call: a workload, histograms, and
// the release's privacy parameters.
type EngineRequest = engine.Request

// EngineStats is the counter snapshot returned by Engine.Stats.
type EngineStats = engine.Stats

// NewEngine starts an answering engine. Close it to release its durable
// accountant and refuse further Answer calls.
var NewEngine = engine.New

// WorkloadFingerprint returns the content hash the engine keys caches by
// (hex SHA-256 over the matrix dimensions and data).
func WorkloadFingerprint(w *Workload) string { return core.Fingerprint(w.W) }

// WorkloadPlan is an executable answering plan for one workload: the
// mechanism the planner chose, its tuned parameters, every candidate's
// score, and a human-readable Explain(). Build with Plan or AutoPrepare.
type WorkloadPlan = plan.Plan

// PlanOptions configures Plan/AutoPrepare; the zero value scores the
// default candidate set (lrm, lm, nor) at ε = 1.
type PlanOptions = plan.Options

// PlanCandidate is one scored (or skipped) mechanism of a WorkloadPlan.
type PlanCandidate = plan.Candidate

// Plan analyzes w (one factorization) and plans it: candidate mechanisms
// are scored by their analytic ExpectedSSE closed forms (empirical probe
// when none exists), the paper's regime rules gate the expensive LRM
// candidate to low-rank workloads, and the winner — already prepared,
// via the shared analysis — is retained on the plan.
func Plan(w *Workload, opts PlanOptions) (*WorkloadPlan, error) { return plan.New(w, opts) }

// AutoPrepare plans w and returns the winning mechanism's Prepared
// alongside the plan that chose it — the adaptive form of Prepare, at
// the cost of exactly one factorization of W end to end.
var AutoPrepare = plan.AutoPrepare

// PlanSpec plans an implicit workload from its structure alone: scores
// come from the spec's closed forms, an LRM winner decomposes per
// Kronecker factor (never the assembled product), and the plan records
// the spec descriptor for auditable round trips.
func PlanSpec(s WorkloadSpec, opts PlanOptions) (*WorkloadPlan, error) { return plan.NewSpec(s, opts) }

// AutoPrepareSpec is AutoPrepare for implicit workloads.
var AutoPrepareSpec = plan.AutoPrepareSpec

// PlanDecision is one resident plan decision surfaced by a plan-aware
// Engine's Decisions().
type PlanDecision = engine.PlanDecision

// AnswerBatch is the one-call happy path: decompose the workload with
// default options and answer it on x under ε-differential privacy using
// the Low-Rank Mechanism.
//
//lrm:source x — the histogram arrives raw
//lrm:sink return — the returned answers leave the privacy boundary
func AnswerBatch(w *Workload, x []float64, eps Epsilon, src *Source) ([]float64, error) {
	p, err := LRM{}.Prepare(w)
	if err != nil {
		return nil, err
	}
	return p.Answer(x, eps, src)
}
