package engine

import (
	"testing"

	"lrm/internal/core"
	"lrm/internal/mechanism"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// BenchmarkEngineBatch measures a seeded batch on the engine's one
// answer path: one request carrying 16 histograms over a cached
// workload, released by a single AnswerMany call (the LRM's packed
// multi-RHS GEMMs). (The root package's BenchmarkEngineAnswer covers the
// single-histogram cache-hit path against the bare-Prepared baseline.)
func BenchmarkEngineBatch(b *testing.B) {
	e, err := New(Options{Mechanism: mechanism.LRM{Options: core.Options{MaxOuterIter: 10}}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	w := workload.Related(32, 256, 4, rng.New(1))
	const batch = 16
	xs := make([][]float64, batch)
	for i := range xs {
		xs[i] = rng.New(int64(i)).UniformVec(w.Domain(), 0, 100)
	}
	req := Request{Workload: w, Histograms: xs, Eps: 0.1, Seed: 2}
	if _, err := e.Answer(req); err != nil {
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
