package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AliasGuard flags calls to the mat in-place kernels whose
// destination syntactically aliases an operand that the kernel forbids
// aliasing. The kernels enforce the same rule at runtime with a
// sharesStorage panic, but only on the execution paths a test happens to
// drive; the analyzer turns the obvious cases — the same variable or the
// same field chain passed as both dst and operand — into findings on
// every path at build time.
var AliasGuard = &Analyzer{
	Name: "aliasguard",
	Doc: "flags mat in-place kernel calls (MulTo, GramTo, MulEpiTo, …) " +
		"whose destination syntactically aliases an operand the kernel " +
		"must not alias; such calls panic at runtime and would corrupt " +
		"the operand mid-product if they did not",
	Run: runAliasGuard,
}

// aliasRule describes one kernel: which argument is the destination and
// which argument positions it must not alias. Argument indices are into
// the call's ordinary argument list (methods count from their first
// explicit argument).
type aliasRule struct {
	dst      int
	operands []int
}

// aliasKernels maps the fully qualified function name (types.Func.FullName)
// to its aliasing contract. Element-wise kernels (AddTo, ScaleTo, …)
// explicitly allow aliasing and are absent.
var aliasKernels = map[string]aliasRule{
	"lrm/internal/mat.MulTo":       {dst: 0, operands: []int{1, 2}},
	"lrm/internal/mat.MulABtTo":    {dst: 0, operands: []int{1, 2}},
	"lrm/internal/mat.MulAtBTo":    {dst: 0, operands: []int{1, 2}},
	"lrm/internal/mat.MulEpiTo":    {dst: 0, operands: []int{1, 2}},
	"lrm/internal/mat.GramTo":      {dst: 0, operands: []int{1}},
	"lrm/internal/mat.GramTTo":     {dst: 0, operands: []int{1}},
	"lrm/internal/mat.TransposeTo": {dst: 0, operands: []int{1}},
	// SolveRightSPDTo(dst, b, a, lwork): dst may fully alias b (the
	// solve consumes b row-by-row into dst), but must not alias the
	// system matrix or the Cholesky scratch; lwork must be private.
	"lrm/internal/mat.SolveRightSPDTo": {dst: 0, operands: []int{2, 3}},
	// Vector kernels: dst must not alias the input vector.
	"lrm/internal/mat.MulVecTo":  {dst: 0, operands: []int{2}},
	"lrm/internal/mat.MulVecTTo": {dst: 0, operands: []int{2}},
}

func runAliasGuard(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			rule, ok := aliasKernels[fn.FullName()]
			if !ok {
				return true
			}
			if len(call.Args) <= rule.dst {
				return true
			}
			dst := call.Args[rule.dst]
			for _, oi := range rule.operands {
				if oi >= len(call.Args) {
					continue
				}
				if sameExpr(pass.Info, dst, call.Args[oi]) {
					pass.Report(call.Pos(),
						"%s: destination %s aliases operand %d (this call panics at runtime)",
						shortKernelName(fn), exprString(dst), oi)
				}
			}
			return true
		})
	}
	return nil
}

// shortKernelName renders pkg.Func or Type.Method for diagnostics.
func shortKernelName(fn *types.Func) string {
	full := fn.FullName()
	if i := strings.LastIndex(full, "/"); i >= 0 {
		full = full[i+1:]
	}
	return full
}
