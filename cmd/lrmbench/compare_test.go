package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchDoc(ns map[string]int64) *benchDocument {
	doc := &benchDocument{}
	for _, name := range []string{"MatMul256", "MatMul512", "MatMul1024", "DecomposeBench", "Plan", "ImplicitPlan", "SpecPrepareLRM", "EngineAnswer", "EngineAnswerMany", "EngineAnswerSeq64"} {
		if v, ok := ns[name]; ok {
			doc.Benchmarks = append(doc.Benchmarks, benchResult{Name: name, Iterations: 1, NsPerOp: v})
		}
	}
	return doc
}

func fullDoc(scale int64) map[string]int64 {
	return map[string]int64{
		"MatMul256": 1000 * scale, "MatMul512": 8000 * scale, "MatMul1024": 64000 * scale,
		"DecomposeBench": 200000 * scale, "Plan": 250000 * scale, "ImplicitPlan": 30 * scale, "SpecPrepareLRM": 200000 * scale,
		"EngineAnswer": 70 * scale, "EngineAnswerMany": 1500 * scale, "EngineAnswerSeq64": 4500 * scale,
	}
}

// TestComparePassesWithinTolerance: uniform noise below the tolerance
// must not trip the gate.
func TestComparePassesWithinTolerance(t *testing.T) {
	oldDoc := benchDoc(fullDoc(100))
	newDoc := benchDoc(fullDoc(120)) // +20% across the board
	var out bytes.Buffer
	if err := compareBenchDocs(&out, oldDoc, newDoc, 0.30); err != nil {
		t.Fatalf("gate tripped within tolerance: %v\n%s", err, out.String())
	}
}

// TestCompareFailsOnTier1Regression: a tier-1 kernel beyond tolerance
// must fail and name the offender.
func TestCompareFailsOnTier1Regression(t *testing.T) {
	oldDoc := benchDoc(fullDoc(100))
	bad := fullDoc(100)
	bad["MatMul512"] = bad["MatMul512"] * 2 // +100%
	var out bytes.Buffer
	err := compareBenchDocs(&out, oldDoc, benchDoc(bad), 0.30)
	if err == nil {
		t.Fatalf("2x MatMul512 regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "MatMul512") {
		t.Fatalf("failure does not name the kernel: %v", err)
	}
}

// TestCompareIgnoresNonTier1Regression: end-to-end sweeps may wobble
// arbitrarily without gating.
func TestCompareIgnoresNonTier1Regression(t *testing.T) {
	oldDoc := benchDoc(fullDoc(100))
	wobble := fullDoc(100)
	wobble["MatMul256"] *= 5
	wobble["EngineAnswerSeq64"] *= 5
	var out bytes.Buffer
	if err := compareBenchDocs(&out, oldDoc, benchDoc(wobble), 0.30); err != nil {
		t.Fatalf("non-tier-1 wobble tripped the gate: %v", err)
	}
}

// TestCompareFailsOnMissingTier1: silently dropping a tier-1 benchmark
// from the suite is itself a gate failure.
func TestCompareFailsOnMissingTier1(t *testing.T) {
	oldDoc := benchDoc(fullDoc(100))
	missing := fullDoc(100)
	delete(missing, "EngineAnswerMany")
	var out bytes.Buffer
	err := compareBenchDocs(&out, oldDoc, benchDoc(missing), 0.30)
	if err == nil || !strings.Contains(err.Error(), "EngineAnswerMany") {
		t.Fatalf("missing tier-1 benchmark not flagged: %v", err)
	}
}

// TestCompareSkipsBenchmarksNewInCandidate: a kernel absent from the old
// baseline (e.g. just added to the suite) is reported and skipped.
func TestCompareSkipsBenchmarksNewInCandidate(t *testing.T) {
	older := fullDoc(100)
	delete(older, "EngineAnswerMany")
	delete(older, "EngineAnswerSeq64")
	var out bytes.Buffer
	if err := compareBenchDocs(&out, benchDoc(older), benchDoc(fullDoc(100)), 0.30); err != nil {
		t.Fatalf("new-in-candidate benchmark failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "new, no baseline") {
		t.Fatalf("report does not mark the new benchmark:\n%s", out.String())
	}
}

// TestCompareNewBenchmarkReport: candidate-only benchmarks must be
// called out by name in a non-failing summary — even when one of them is
// tier-1 in the candidate (its absence from the baseline is the normal
// state right after the benchmark lands; only absence from the candidate
// gates). A regression elsewhere must still fail independently.
func TestCompareNewBenchmarkReport(t *testing.T) {
	older := fullDoc(100)
	delete(older, "EngineAnswerMany") // tier-1, new in candidate
	delete(older, "MatMul256")        // non-tier-1, new in candidate
	var out bytes.Buffer
	if err := compareBenchDocs(&out, benchDoc(older), benchDoc(fullDoc(100)), 0.30); err != nil {
		t.Fatalf("candidate-only benchmarks tripped the gate: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "2 new benchmark(s) without a baseline, not gated: MatMul256, EngineAnswerMany") {
		t.Fatalf("summary does not list the new benchmarks:\n%s", report)
	}

	// The summary must not mask real failures: regress a tier-1 kernel
	// that does have a baseline and the gate still fails.
	bad := fullDoc(100)
	bad["MatMul512"] *= 2
	out.Reset()
	err := compareBenchDocs(&out, benchDoc(older), benchDoc(bad), 0.30)
	if err == nil || !strings.Contains(err.Error(), "MatMul512") {
		t.Fatalf("regression alongside new benchmarks not gated: %v", err)
	}
	if !strings.Contains(out.String(), "new, no baseline") {
		t.Fatalf("new benchmarks not reported alongside the failure:\n%s", out.String())
	}
}

// TestCompareResolvesGlobByGeneratedStamp: with a glob baseline the
// newest document by "generated" must win — not the lexicographically
// last filename — and the candidate file itself must be excluded.
func TestCompareResolvesGlobByGeneratedStamp(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc *benchDocument, gen string) string {
		if gen != "" {
			if err := doc.Generated.UnmarshalJSON([]byte(`"` + gen + `"`)); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Lexicographically "BENCH_a" < "BENCH_b", but a is newer: a fast
	// candidate must still trip the gate against a (the true baseline),
	// which b — with its slower numbers — would mask.
	write("BENCH_a.json", benchDoc(fullDoc(100)), "2026-07-26T12:00:00Z")
	write("BENCH_b.json", benchDoc(fullDoc(1000)), "2026-07-01T00:00:00Z")
	newPath := write("BENCH_ci.json", benchDoc(fullDoc(150)), "2026-07-27T00:00:00Z")
	var out bytes.Buffer
	err := compareBenchFiles(&out, filepath.Join(dir, "BENCH_*.json"), newPath, 0.30)
	if err == nil {
		t.Fatalf("50%% regression vs the newest baseline passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BENCH_a.json") {
		t.Fatalf("baseline resolution did not pick the newest document:\n%s", out.String())
	}
	// Candidate-only directory: the glob must refuse to self-compare.
	lone := t.TempDir()
	buf, err := json.Marshal(benchDoc(fullDoc(100)))
	if err != nil {
		t.Fatal(err)
	}
	lonePath := filepath.Join(lone, "BENCH_ci.json")
	if err := os.WriteFile(lonePath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareBenchFiles(&out, filepath.Join(lone, "BENCH_*.json"), lonePath, 0.30); err == nil {
		t.Fatal("glob matching only the candidate accepted")
	}
}

// TestCompareBenchFiles round-trips through real files, the shape CI
// invokes.
func TestCompareBenchFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc *benchDocument) string {
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", benchDoc(fullDoc(100)))
	newPath := write("new.json", benchDoc(fullDoc(110)))
	var out bytes.Buffer
	if err := compareBenchFiles(&out, oldPath, newPath, 0.30); err != nil {
		t.Fatal(err)
	}
	if err := compareBenchFiles(&out, oldPath, filepath.Join(dir, "absent.json"), 0.30); err == nil {
		t.Fatal("missing candidate file accepted")
	}
	if err := compareBenchFiles(&out, oldPath, newPath, 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
}

// TestCompareReadsLegacyKernelFields: trajectory documents written while
// the kernel choice was calibrated per product shape carry
// kernel_dispatch, calibration and per-entry kernel_family fields. Such a
// baseline must load and gate exactly like the same document without
// them, and every committed BENCH_*.json must still load.
func TestCompareReadsLegacyKernelFields(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := benchDoc(fullDoc(100))
	base.KernelTier = "avx512"
	plainPath := write("plain.json", base)

	var legacy map[string]any
	buf, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &legacy); err != nil {
		t.Fatal(err)
	}
	legacy["kernel_dispatch"] = map[string]string{"deep-narrow": "avx2", "square-wide": "avx512"}
	legacy["calibration"] = []map[string]any{
		{"class": "deep-narrow", "family": "avx2", "best_ns": 23290, "winner": true},
		{"class": "deep-narrow", "family": "avx512", "best_ns": 23213, "winner": false},
	}
	for _, e := range legacy["benchmarks"].([]any) {
		e.(map[string]any)["kernel_family"] = "avx512"
	}
	legacyPath := write("legacy.json", legacy)

	regressed := fullDoc(100)
	regressed["MatMul512"] *= 2
	for _, cand := range []map[string]int64{fullDoc(110), regressed} {
		candPath := write("cand.json", benchDoc(cand))
		var plainOut, legacyOut bytes.Buffer
		plainErr := compareBenchFiles(&plainOut, plainPath, candPath, 0.30)
		legacyErr := compareBenchFiles(&legacyOut, legacyPath, candPath, 0.30)
		if fmt.Sprint(plainErr) != fmt.Sprint(legacyErr) {
			t.Fatalf("legacy baseline gates differently: %v vs %v", legacyErr, plainErr)
		}
		if got, want := strings.ReplaceAll(legacyOut.String(), "legacy.json", "plain.json"), plainOut.String(); got != want {
			t.Fatalf("legacy baseline reports differently:\n%s\nvs\n%s", got, want)
		}
	}

	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if _, err := readBenchDocument(path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}
