package lint

import (
	"go/ast"
	"runtime"
	"strings"
	"testing"
)

func TestNoiseFlowFixtures(t *testing.T) {
	checkFixture(t, NoiseFlow, "noiseflow/bad")
	checkFixture(t, NoiseFlow, "noiseflow/clean")
}

func TestLockGuardFixtures(t *testing.T) {
	checkFixture(t, LockGuard, "lockguard/bad")
	checkFixture(t, LockGuard, "lockguard/clean")
}

func TestAsmVetFixtures(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("asmvet fixtures carry _amd64.s files the go tool filters out here")
	}
	checkFixture(t, AsmVet, "asmvet/bad")
	checkFixture(t, AsmVet, "asmvet/clean")
}

// TestMalformedDirectives pins the failure mode of the directive
// grammar: a typo'd //lrm: declaration must surface as a finding, not
// silently declare nothing. The findings land on the directive comment
// lines, which a // want comment cannot share, so the expectations live
// here instead of in the fixture.
func TestMalformedDirectives(t *testing.T) {
	pkgs, err := LoadPackages([]string{fixtureRoot + "noiseflow/malformed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages", len(pkgs))
	}
	diags, err := runAnalyzers(pkgs[0], All())
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"names nosuch, which is not a parameter of typod",
		`malformed //lrm:sink: want no argument, "args", or "return", got results`,
		"//lrm:guardedby on a function requires a method receiver",
	}
	for _, want := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q; got %d findings:", want, len(diags))
			for _, d := range diags {
				t.Logf("  %s", d)
			}
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("want exactly %d findings, got %d", len(wants), len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// deleteStmtCalling removes, from the named function's body, every
// top-level statement whose subtree calls the named function — the AST
// surgery the injected-violation tests use to simulate a developer
// deleting a noise-add or a lock acquisition.
func deleteStmtCalling(t *testing.T, prog *Program, fnKey, callee string) {
	t.Helper()
	fi := prog.funcs[fnKey]
	if fi == nil {
		t.Fatalf("function %s not found in load", fnKey)
	}
	var kept []ast.Stmt
	removed := 0
	for _, s := range fi.Decl.Body.List {
		calls := false
		ast.Inspect(s, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == callee {
				calls = true
			}
			if id, ok := n.(*ast.Ident); ok && id.Name == callee {
				calls = true
			}
			return !calls
		})
		if calls {
			removed++
			continue
		}
		kept = append(kept, s)
	}
	if removed == 0 {
		t.Fatalf("%s has no statement calling %s", fnKey, callee)
	}
	fi.Decl.Body.List = kept
}

// loadMutable returns a freshly loaded, uncached program the test may
// mutate without poisoning the process-wide load cache.
func loadMutable(t *testing.T) *Program {
	t.Helper()
	pkgs, err := loadPackagesUncached([]string{"lrm/..."})
	if err != nil {
		t.Fatal(err)
	}
	return BuildProgram(pkgs)
}

// TestInjectedNoiseDeletion is the acceptance criterion in test form:
// deleting the Laplace noise-add inside the serving path's mechanism
// must make noiseflow name a raw source→sink path.
func TestInjectedNoiseDeletion(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide uncached load shells out to go list")
	}
	prog := loadMutable(t)
	deleteStmtCalling(t, prog, "lrm/internal/core.Mechanism.Answer", "AddLaplaceNoise")
	diags, err := runSuite(prog, []*Analyzer{NoiseFlow})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("deleting the AddLaplaceNoise call in core.Mechanism.Answer produced no findings")
	}
	pathNamed := false
	for _, d := range diags {
		if strings.Contains(d.Message, "Histograms") || strings.Contains(d.Message, "//lrm:source") {
			pathNamed = true
		}
	}
	if !pathNamed {
		t.Errorf("no finding names the raw source; got:")
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestInjectedHMNoiseDeletion: the baseline mechanisms carry no
// //lrm:sanitizer declaration of their own — their noise comes from the
// privacy primitives — so deleting HM's AddLaplaceNoise call must make
// noiseflow name a raw source→sink path through the mechanism, not
// merely flag a vacuous declaration.
func TestInjectedHMNoiseDeletion(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide uncached load shells out to go list")
	}
	prog := loadMutable(t)
	deleteStmtCalling(t, prog, "lrm/internal/mechanism.hierarchicalPrepared.Answer", "AddLaplaceNoise")
	diags, err := runSuite(prog, []*Analyzer{NoiseFlow})
	if err != nil {
		t.Fatal(err)
	}
	pathNamed := false
	for _, d := range diags {
		if strings.Contains(d.Message, "//lrm:source") && strings.Contains(d.Message, "//lrm:sink") {
			pathNamed = true
		}
	}
	if !pathNamed {
		t.Errorf("deleting HM's AddLaplaceNoise call produced no source→sink finding; got %d findings:", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestInjectedBatchNoiseDeletion: same for the multi-RHS path, whose
// noise rides the first GEMM's fused epilogue — deleting the noise
// pre-draw inside noiseFusedProduct leaves a declared sanitizer that
// never draws, which the sanitizer verifier must flag as vacuous.
func TestInjectedBatchNoiseDeletion(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide uncached load shells out to go list")
	}
	prog := loadMutable(t)
	deleteStmtCalling(t, prog, "lrm/internal/core.Mechanism.noiseFusedProduct", "DrawLaplaceNoise")
	diags, err := runSuite(prog, []*Analyzer{NoiseFlow})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("deleting the DrawLaplaceNoise pre-draw in core.Mechanism.noiseFusedProduct produced no findings")
	}
	named := false
	for _, d := range diags {
		if strings.Contains(d.Message, "noiseFusedProduct") && strings.Contains(d.Message, "vacuous") {
			named = true
		}
	}
	if !named {
		t.Errorf("no finding names noiseFusedProduct as a vacuous sanitizer; got:")
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestInjectedLockDeletion: deleting the acquisition that guards an
// annotated field must make lockguard flag the now-unguarded accesses.
func TestInjectedLockDeletion(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide uncached load shells out to go list")
	}
	prog := loadMutable(t)
	fi := prog.funcs["lrm/internal/privacy.Budget.Spend"]
	if fi == nil {
		t.Fatal("privacy.Budget.Spend not found in load")
	}
	var kept []ast.Stmt
	removed := 0
	for _, s := range fi.Decl.Body.List {
		drop := false
		switch n := s.(type) {
		case *ast.ExprStmt:
			drop = strings.Contains(exprString(n.X), "Lock")
		case *ast.DeferStmt:
			drop = strings.Contains(exprString(n.Call), "Unlock")
		}
		if drop {
			removed++
			continue
		}
		kept = append(kept, s)
	}
	if removed == 0 {
		t.Fatal("Budget.Spend has no lock statements to delete")
	}
	fi.Decl.Body.List = kept
	diags, err := runSuite(prog, []*Analyzer{LockGuard})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "spent is //lrm:guardedby mu") {
			found = true
		}
	}
	if !found {
		t.Errorf("deleting Budget.Spend's lock produced no finding on spent; got %d findings", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}
