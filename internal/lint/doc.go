// Package lint is the repository's own static-analysis suite: eight
// analyzers that turn the invariants the numeric and privacy layers
// depend on — but that ordinary tests only probe pointwise — into
// build-time checks over every path.
//
// # Syntactic analyzers
//
//   - aliasguard: in-place mat kernel calls (MulTo, GramTo,
//     MulEpiTo, SolveRightSPDTo, …) must not pass the same variable or
//     field chain as destination and a forbidden operand. The kernels
//     panic on aliasing at runtime; the analyzer catches the obvious
//     cases on paths no test drives.
//   - noalloc: functions annotated //lrm:noalloc must contain no
//     syntactic allocation constructs (make, new, append, map/slice
//     literals, &-composite literals, closures, go statements). The
//     annotation is the static face of the testing.AllocsPerRun pins.
//   - noiserand: math/rand is importable only by internal/rng,
//     (*rng.Source).Laplace is callable only from internal/privacy and
//     internal/rng (every release draws through the privacy
//     primitives), and constant noise seeds (rng.New(42),
//     Source.Reseed(7), Seed: 9 fields) are forbidden in serving code —
//     a replayable noise stream is a subtractable one, which voids the
//     ε-DP guarantee.
//   - epshygiene: an ε reaching a release sink (Answer, AnswerMany,
//     Prepare, PrepareWith) must be validated earlier in the same
//     function, and (*privacy.Budget).Spend errors must not be
//     discarded.
//   - detiter: in the bit-identity packages (mat, core, engine, plan),
//     map-range bodies must not write positional output or accumulate
//     floating-point state, because map iteration order is randomized
//     per execution.
//
// # Dataflow analyzers
//
// Three analyzers work on a whole program rather than one function at a
// time. Run builds a Program — every loaded package, a FuncInfo per
// function declaration, and a symbolic call graph keyed by
// "pkgpath.Recv.Name" strings so source-checked and imported views of
// the same function unify — and the analyzers compose per-function
// summaries over it to a fixpoint.
//
// noiseflow proves the noise-before-release invariant of the low-rank
// mechanism: no raw histogram data reaches a release boundary without
// passing through a noise-adding sanitizer, on any interprocedural
// path. Taint is a small abstract value per variable (nfDeps): a
// "fresh" bit with a human-readable witness chain for data already
// known raw, plus a bitmask of the enclosing function's parameters the
// value depends on. Summaries record, per function, the taint of each
// result and the taint each pointer-like parameter's storage gains
// (mutates); a Kleene iteration from bottom composes them across calls,
// joining over every implementation at interface call sites. A second
// fixpoint propagates raw-on-entry facts from //lrm:source field reads
// down the call graph, and a final pass reports every sink reached by a
// raw value, with the full source → call → sink witness chain in the
// message.
//
// The taint model, in brief:
//
//	source:    reads of //lrm:source fields (fresh, with witness)
//	transfer:  assignments, arithmetic, composite literals, indexing,
//	           append/copy, call results and pointer-arg mutations via
//	           callee summaries; slice views (cd := dst.data) forward
//	           writes to their base variable
//	exempt:    error values; integer/bool scalars (dims, counts, seeds
//	           — shape metadata, like the built-in len); non-source
//	           fields of a //lrm:source-bearing struct
//	sanitize:  calls to //lrm:sanitizer functions clear the returned
//	           (or named in-place) values; a declared sanitizer whose
//	           body never draws from internal/rng is itself a finding.
//	           The declarations sit on the internal/privacy primitives
//	           (plus core's fused-epilogue product, whose closure the
//	           analysis cannot see through), so every mechanism that
//	           calls them is checked rather than trusted
//	sink:      //lrm:sink functions (arguments or returns) and
//	           net/http.ResponseWriter writes
//
// lockguard enforces lock discipline declaratively: a struct field
// annotated //lrm:guardedby mu may only be read or written while the
// sibling mutex mu is held. The analyzer tracks Lock/Unlock/RLock pairs
// (including defer), understands early-return branches that unlock and
// terminate, exempts freshly constructed values no other goroutine can
// see, and supports the function form — //lrm:guardedby mu on a method
// declares "callers must hold recv.mu", checked at every call site.
//
// asmvet cross-checks every .s file against the Go prototypes it
// implements: TEXT blocks and bodyless declarations must pair up both
// ways, frame descriptors ($frame-argsize) must match the ABI0 argument
// block computed from the prototype via types.SizesFor, every
// sym+off(FP) reference must use the ABI0 offset of that parameter or
// named result, NOSPLIT is required, and a function that touches Y
// registers must execute VZEROUPPER immediately before RET.
//
// # Directive grammar
//
// Annotations ride in comments attached to the declaration they
// describe (doc comments for functions and fields); prose may follow an
// em dash.
//
//	//lrm:source               field holds raw, un-noised data
//	//lrm:sanitizer            the function's results are sanitized
//	//lrm:sanitizer v1 v2 …    these arguments are sanitized in place
//	//lrm:sink                 raw data must not reach the arguments
//	//lrm:sink return          raw data must not be returned
//	//lrm:guardedby mu         field: hold sibling mu to touch this
//	                           method: callers hold recv.mu on entry
//	//lrm:noalloc              body must not allocate
//
// Malformed directives — a sanitizer naming a non-parameter, an
// unknown sink form, //lrm:guardedby on a free function — are findings
// in their own right.
//
// Findings are suppressed case by case with
//
//	//lint:ignore <analyzer> <justification>
//
// on or directly above the flagged line (in .go and .s files alike);
// the justification is mandatory, a directive naming an unknown
// analyzer is itself a finding, and generated files (a "Code generated"
// header) are exempt wholesale.
//
// # Framework
//
// The framework (Analyzer, Pass, Diagnostic, Run) is a deliberate
// stdlib-only subset of golang.org/x/tools/go/analysis: packages are
// loaded through `go list -export` plus the gc importer, so the suite
// needs no dependencies beyond the toolchain and can migrate onto the
// real multichecker wholesale if the dependency ever lands. One load
// and typecheck is shared by all eight analyzers — on this tree that is
// ~0.55 s for the whole suite versus ~3.3 s if each analyzer loaded the
// program itself (about 6x). The cmd/lrmlint binary drives the suite
// (text or -json output; exit 0 clean, 1 findings, 2 load errors);
// fixture packages under testdata/src exercise every analyzer with
// want-annotated positives and clean negatives, and injected-violation
// tests delete a noise-add or a lock acquisition from the real tree's
// AST and assert the suite catches it.
package lint
