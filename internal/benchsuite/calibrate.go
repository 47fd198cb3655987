package benchsuite

// CalibrateKernels does nothing. Every GEMM product runs the widest
// kernel tier the host enables (internal/mat/gemmtier.go), so there is
// no per-shape kernel choice left to measure.
//
// Deprecated: kept only for its last caller, the trace replay in
// bench/lrmload/trace.go; the next change to the benchmark deletes that
// call and then this function.
func CalibrateKernels() {}
