// Package lrm implements the Low-Rank Mechanism (LRM) of Yuan et al.
// (PVLDB 5(11), 2012) for answering batches of linear counting queries
// under ε-differential privacy, together with every baseline mechanism
// evaluated in the paper (Laplace, noise-on-results, Privelet wavelets,
// hierarchical trees with consistency, and the matrix mechanism), the
// paper's workload generators, and synthetic stand-ins for its datasets.
//
// Beyond the paper's evaluation, the library implements its named
// related-/future-work directions as extensions: the Fourier perturbation
// algorithm (reference [24]), the compressive mechanism with OMP
// reconstruction (reference [17]), bucketized DP histograms (reference
// [29]), a free consistency projection onto the workload's column space,
// and rank tuning.
//
// Workloads come in two forms. A dense Workload holds the m×n query
// matrix explicitly; a WorkloadSpec describes the same queries
// structurally (prefix sums, range queries, marginals, and Kronecker
// products of those) and never materializes W — answers, Gram products,
// sensitivity, analysis, planning, and serving all run against the
// structure, so workloads with 10¹²⁺ cells stay megabyte-sized end to
// end. The dense form is the adapter path: AsWorkloadSpec lifts any
// matrix into the spec API unchanged (same fingerprints, same caches),
// and MaterializeSpec lowers small specs back to matrices for code that
// needs them.
//
// For serving, the Engine (NewEngine) amortizes workload decompositions
// across concurrent answer traffic — LRU-cached prepared workloads,
// singleflight preparation, an optional on-disk decomposition cache, and
// per-request budget accounting — and cmd/lrmserve exposes it over HTTP.
// The adaptive planner (Plan, AutoPrepare; EngineOptions.Planner) turns
// the paper's regime analysis into an executable per-workload mechanism
// choice: candidates are scored by their expected-error closed forms and
// the winner serves the workload, at the cost of one factorization.
//
// The root package is a thin facade over the internal packages; see
// facade.go for the public API and examples/ for runnable programs.
package lrm
