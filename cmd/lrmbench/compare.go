package main

// The -compare mode is the CI perf-regression gate: it diffs two
// BENCH_*.json trajectory documents (the committed baseline and a fresh
// run) and fails when any tier-1 kernel got slower than the tolerance
// allows. Non-tier-1 entries are reported for context but never gate —
// they include end-to-end sweeps whose variance would make the gate cry
// wolf.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// tier1Benchmarks are the kernels the gate protects: the tentpole GEMM
// size, the end-to-end ALM decomposition, the adaptive planner (dense
// and implicit), the fixed-LRM spec preparation, and the engine's
// serving paths. A tier-1 name missing from the new run fails the gate
// (a silently dropped benchmark is how regressions hide); one missing
// from the old baseline is reported as new and skipped, so adding a
// kernel does not require rewriting history.
var tier1Benchmarks = []string{"MatMul512", "DecomposeBench", "Plan", "ImplicitPlan", "SpecPrepareLRM", "EngineAnswer", "EngineAnswerMany"}

// compareBenchFiles loads two trajectory documents and gates new against
// old at the given tolerance (0.30 = fail on >30% slowdown), writing a
// per-benchmark report to w. The returned error describes every gate
// violation.
//
// oldPath may be a glob (e.g. 'BENCH_*.json'): the candidate file is
// excluded from the matches and the remaining document with the newest
// "generated" timestamp becomes the baseline. Filename sort would get
// this wrong — two baselines committed the same day order
// lexicographically, not chronologically — and the generated stamp is
// written by the suite itself, so it is the ground truth CI wants.
func compareBenchFiles(w io.Writer, oldPath, newPath string, tol float64) error {
	oldPath, err := resolveBaseline(oldPath, newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline: %s\n", oldPath)
	oldDoc, err := readBenchDocument(oldPath)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", oldPath, err)
	}
	newDoc, err := readBenchDocument(newPath)
	if err != nil {
		return fmt.Errorf("candidate %s: %w", newPath, err)
	}
	return compareBenchDocs(w, oldDoc, newDoc, tol)
}

// resolveBaseline expands a glob baseline argument to the matched
// document (excluding the candidate) with the newest generated
// timestamp. A non-glob path is returned unchanged.
func resolveBaseline(oldPath, newPath string) (string, error) {
	if !strings.ContainsAny(oldPath, "*?[") {
		return oldPath, nil
	}
	matches, err := filepath.Glob(oldPath)
	if err != nil {
		return "", fmt.Errorf("baseline glob %q: %w", oldPath, err)
	}
	newAbs, _ := filepath.Abs(newPath)
	best := ""
	var bestGen time.Time
	for _, m := range matches {
		if abs, _ := filepath.Abs(m); abs == newAbs {
			continue
		}
		doc, err := readBenchDocument(m)
		if err != nil {
			return "", fmt.Errorf("baseline candidate %s: %w", m, err)
		}
		if best == "" || doc.Generated.After(bestGen) {
			best, bestGen = m, doc.Generated
		}
	}
	if best == "" {
		return "", fmt.Errorf("baseline glob %q matched no usable documents", oldPath)
	}
	return best, nil
}

func readBenchDocument(path string) (*benchDocument, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDocument
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmarks in document")
	}
	return &doc, nil
}

func compareBenchDocs(w io.Writer, oldDoc, newDoc *benchDocument, tol float64) error {
	if tol <= 0 {
		return fmt.Errorf("tolerance must be positive, got %v", tol)
	}
	oldBy := make(map[string]benchResult, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := make(map[string]benchResult, len(newDoc.Benchmarks))
	for _, b := range newDoc.Benchmarks {
		newBy[b.Name] = b
	}
	tier1 := make(map[string]bool, len(tier1Benchmarks))
	var failures []string
	for _, name := range tier1Benchmarks {
		tier1[name] = true
		if _, ok := newBy[name]; !ok {
			failures = append(failures, fmt.Sprintf("tier-1 benchmark %s missing from candidate run", name))
		}
	}

	fmt.Fprintf(w, "%-24s %14s %14s %9s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "gate")
	var newNames []string
	for _, nb := range newDoc.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			// A benchmark just added to the suite has no history to gate
			// against; report it so the trajectory grows visibly, never
			// fail on it (requiring baselines to be rewritten before a
			// kernel can land would invert the workflow).
			fmt.Fprintf(w, "%-24s %14s %14d %9s  %s\n", nb.Name, "-", nb.NsPerOp, "-", "new, no baseline")
			newNames = append(newNames, nb.Name)
			continue
		}
		if ob.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-24s %14d %14d %9s  %s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, "-", "baseline unusable, skipped")
			continue
		}
		delta := float64(nb.NsPerOp)/float64(ob.NsPerOp) - 1
		verdict := "info"
		if tier1[nb.Name] {
			verdict = "ok"
			if delta > tol {
				verdict = fmt.Sprintf("FAIL (>%0.f%%)", tol*100)
				failures = append(failures, fmt.Sprintf("%s regressed %+.1f%% (%d → %d ns/op, tolerance %.0f%%)",
					nb.Name, delta*100, ob.NsPerOp, nb.NsPerOp, tol*100))
			}
		}
		fmt.Fprintf(w, "%-24s %14d %14d %+8.1f%%  %s\n", nb.Name, ob.NsPerOp, nb.NsPerOp, delta*100, verdict)
	}

	if len(newNames) > 0 {
		fmt.Fprintf(w, "%d new benchmark(s) without a baseline, not gated: %s\n",
			len(newNames), strings.Join(newNames, ", "))
	}

	if len(failures) > 0 {
		msg := "perf gate failed:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
