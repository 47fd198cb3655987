package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// NoiseRand enforces the repository's noise-provenance invariant, the
// core correctness property of the paper's mechanism: Laplace noise that
// an adversary can regenerate can be subtracted, which voids the ε-DP
// guarantee entirely. Concretely:
//
//  1. Only internal/rng may import math/rand (it wraps it behind the
//     Source samplers); anywhere else the import is flagged, so noise can
//     never be drawn from an ad-hoc, guessably seeded stream.
//  2. In serving and mechanism code, rng.New / Source.Reseed /
//     lrm.NewSource with a compile-time-constant seed is flagged: a
//     constant seed bakes a replayable noise stream into production
//     code. Packages whose constant seeds are reproducibility features,
//     not noise (benchmarks, experiment figures, dataset synthesis,
//     examples), are exempt.
//  3. Likewise, a non-zero compile-time-constant Seed: field in a
//     composite literal is flagged outside the exempt packages (zero
//     means "unseeded", which the engine resolves from crypto/rand).
//  4. (*rng.Source).Laplace is usable only inside internal/privacy and
//     internal/rng: every release draws its noise through the privacy
//     primitives (AddLaplaceNoise, DrawLaplaceNoise, …), so the scale
//     and order of the draws are decided in one package, and noiseflow
//     checks the mechanisms that call them instead of trusting their
//     own //lrm:sanitizer declarations.
//
// Test files are outside the loader's scope, so seeded determinism in
// tests is untouched.
var NoiseRand = &Analyzer{
	Name: "noiserand",
	Doc: "forbids math/rand outside internal/rng, Laplace draws outside " +
		"internal/privacy, and constant noise seeds (rng.New, Source.Reseed, " +
		"Seed: fields) in serving code, where a guessable seed makes Laplace " +
		"noise subtractable",
	Run: runNoiseRand,
}

// randImportExempt may import math/rand.
var randImportExempt = map[string]bool{
	"lrm/internal/rng": true,
}

// seedExempt packages may use compile-time-constant seeds: their seeded
// streams regenerate benchmarks, paper figures, and synthetic datasets
// bit-for-bit — a documented reproducibility contract, not a privacy
// release. Fixture packages under testdata keep the checks active so the
// analyzer can be tested.
var seedExempt = []string{
	"lrm/internal/rng",
	"lrm/internal/benchsuite",
	"lrm/internal/experiments",
	"lrm/internal/dataset",
	"lrm/examples/",
}

// laplaceCallers may call (*rng.Source).Laplace directly. The noiseflow
// fixtures are included because they model sanitizer primitives of
// their own.
var laplaceCallers = []string{
	"lrm/internal/privacy",
	"lrm/internal/rng",
	"lrm/internal/lint/testdata/src/noiseflow/",
}

const laplaceMethod = "(*lrm/internal/rng.Source).Laplace"

// seededConstructors are the functions whose first argument is a noise
// seed.
var seededConstructors = map[string]bool{
	"lrm/internal/rng.New":              true,
	"(*lrm/internal/rng.Source).Reseed": true,
	"lrm.NewSource":                     true,
}

func noiseSeedExempt(path string) bool {
	return !strings.Contains(path, "lint/testdata/") && pathIn(path, seedExempt)
}

// pathIn reports whether path is one of list, where an entry ending in
// "/" matches every package below it.
func pathIn(path string, list []string) bool {
	for _, e := range list {
		if path == e || strings.HasSuffix(e, "/") && strings.HasPrefix(path, e) {
			return true
		}
	}
	return false
}

func runNoiseRand(pass *Pass) error {
	path := pass.Pkg.Path()

	// (1) math/rand imports.
	if !randImportExempt[path] {
		for _, file := range pass.Files {
			for _, imp := range file.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if p == "math/rand" || p == "math/rand/v2" {
					pass.Report(imp.Pos(),
						"import of %s outside internal/rng: noise must come from rng.Source so seeds are auditable", p)
				}
			}
		}
	}

	// (4) Laplace draws outside the privacy primitives.
	if !pathIn(path, laplaceCallers) {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if fn, _ := pass.Info.Uses[sel.Sel].(*types.Func); fn != nil && fn.FullName() == laplaceMethod {
						pass.Report(sel.Pos(),
							"direct Source.Laplace draw outside internal/privacy: release noise must go through the privacy primitives (AddLaplaceNoise, DrawLaplaceNoise, …)")
					}
				}
				return true
			})
		}
	}

	if noiseSeedExempt(path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, node)
				if fn == nil || !seededConstructors[fn.FullName()] || len(node.Args) == 0 {
					return true
				}
				if v, ok := isConstExpr(pass.Info, node.Args[0]); ok {
					pass.Report(node.Pos(),
						"%s with constant seed %s: a fixed seed makes the noise stream replayable (and subtractable)",
						shortKernelName(fn), v)
				}
			case *ast.CompositeLit:
				for _, elt := range node.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "Seed" {
						continue
					}
					if v, ok := isConstExpr(pass.Info, kv.Value); ok && v != "0" {
						pass.Report(kv.Pos(),
							"constant Seed: %s in non-test code: a baked-in seed makes the release replayable (zero means crypto-seeded)", v)
					}
				}
			}
			return true
		})
	}
	return nil
}
