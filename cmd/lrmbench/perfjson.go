package main

// The -json mode is the perf-trajectory artifact: a fixed suite of
// micro- and end-to-end benchmarks (the dense GEMM sizes the kernel
// layer is tuned for, the full ALM decomposition, and the engine's
// cache-hit answering path) run through testing.Benchmark and written as
// one JSON document. CI runs it on every push and uploads the
// BENCH_*.json, so kernel regressions show up as a broken trajectory
// rather than an anecdote; perf PRs commit a snapshot alongside the
// README numbers. Operands come from internal/benchsuite — the same
// definitions the root package's go benchmarks use — so the trajectory
// measures exactly the paths named in it.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lrm/internal/benchsuite"
	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
)

// benchResult is one suite entry of the trajectory document.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	GFLOPS      float64 `json:"gflops,omitempty"`
}

// benchDocument is the BENCH_*.json schema. CPUModel names the host
// processor (so a comparison can tell a same-host baseline from a
// cross-machine one) and KernelTier the GEMM kernel tier every benchmark
// below ran on — so a committed trajectory always says where it ran and
// which kernels ran. Documents written while the kernel choice was
// calibrated per product shape also carry kernel_dispatch, calibration
// and per-entry kernel_family fields; decoding ignores them.
type benchDocument struct {
	Generated  time.Time     `json:"generated"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	CPUModel   string        `json:"cpu_model,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	KernelTier string        `json:"kernel_tier,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// cpuModel returns the processor's model name from /proc/cpuinfo, or ""
// where that file or field does not exist (non-Linux hosts, and arm64
// kernels that report only part numbers).
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// record converts a testing.BenchmarkResult into a trajectory entry.
func record(name string, res testing.BenchmarkResult, flops float64) benchResult {
	out := benchResult{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
	if flops > 0 && res.NsPerOp() > 0 {
		out.GFLOPS = flops / float64(res.NsPerOp())
	}
	return out
}

// writeBenchJSON runs the perf suite and writes the trajectory document
// to path (conventionally BENCH_<label>.json at the repository root).
func writeBenchJSON(path string) error {
	doc := benchDocument{
		Generated:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelTier: mat.KernelTier(),
	}
	fmt.Fprintf(os.Stderr, "cpu %q, kernel tier %s\n", doc.CPUModel, doc.KernelTier)

	for _, n := range benchsuite.MatMulSizes {
		x, y, dst := benchsuite.MatMulOperands(n)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mat.MulTo(dst, x, y)
			}
		})
		flops := 2 * float64(n) * float64(n) * float64(n)
		doc.Benchmarks = append(doc.Benchmarks, record(fmt.Sprintf("MatMul%d", n), res, flops))
	}

	// End-to-end ALM decomposition on the ablation workload
	// (BenchmarkDecomposeBench in the test suite).
	w := benchsuite.DecomposeWorkload()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Decompose(w.W, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("DecomposeBench", res, 0))

	// Adaptive planner end to end (BenchmarkPlan): one op plans the
	// low-rank decompose workload (analysis + scoring + the winning lrm
	// candidate's ALM, reusing the analysis SVD) and the full-rank
	// WDiscrete workload (regime-gated, closed forms only).
	wl := benchsuite.PlanLowRankWorkload()
	wf := benchsuite.PlanFullRankWorkload()
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.New(wl, plan.Options{}); err != nil {
				b.Fatal(err)
			}
			if _, err := plan.New(wf, plan.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("Plan", res, 0))

	// Structure-aware planning (BenchmarkImplicitPlan): plan + prepare a
	// 10⁶-cell Kronecker spec from its closed forms alone — no matrix is
	// ever materialized, so this must stay orders of magnitude under Plan.
	sp := benchsuite.ImplicitPlanSpec()
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.NewSpec(sp, plan.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("ImplicitPlan", res, 0))

	// Fixed-LRM preparation of the same spec (BenchmarkSpecPrepareLRM):
	// the factored ALM a `-mech lrm` server runs on its first spec-batch
	// request. The planner skips lrm on this full-rank spec, so
	// ImplicitPlan above never measures it.
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mechanism.PrepareSpec(mechanism.LRM{}, sp, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("SpecPrepareLRM", res, 0))

	// Engine cache-hit answering path (BenchmarkEngineAnswer).
	e, req, err := benchsuite.EngineAnswerSetup()
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	defer e.Close()
	if _, err := e.Answer(req); err != nil {
		return fmt.Errorf("warming engine: %w", err)
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Answer(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("EngineAnswer", res, 0))

	// Engine multi-RHS batched path and its sequential baseline
	// (BenchmarkEngineAnswerMany / BenchmarkEngineAnswerSeq64): both
	// answer the same 64 histograms per op, so their ratio is the batch
	// speedup the README table quotes.
	em, emReq, err := benchsuite.EngineAnswerManySetup()
	if err != nil {
		return fmt.Errorf("engine batch: %w", err)
	}
	defer em.Close()
	if _, err := em.Answer(emReq); err != nil {
		return fmt.Errorf("warming batch engine: %w", err)
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := em.Answer(emReq); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("EngineAnswerMany", res, 0))
	oneReq := emReq
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, x := range emReq.Histograms {
				oneReq.Histograms = [][]float64{x}
				if _, err := em.Answer(oneReq); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	doc.Benchmarks = append(doc.Benchmarks, record("EngineAnswerSeq64", res, 0))

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", path, len(doc.Benchmarks))
	return nil
}
