// Command lrmlint runs the repository's custom static-analysis suite
// (internal/lint) over the given packages — the eight analyzers that
// mechanically enforce the kernel, privacy, and determinism invariants
// the optimization PRs have accumulated:
//
//	aliasguard  in-place mat kernels must not alias dst with operands
//	noalloc     //lrm:noalloc functions must stay allocation-free
//	noiserand   noise randomness must come from internal/rng, unseeded;
//	            Laplace draws only through internal/privacy
//	epshygiene  ε must be validated before release sinks; Spend errors checked
//	detiter     no map-iteration order feeding numeric output
//	noiseflow   raw data must pass a //lrm:sanitizer before any release sink
//	lockguard   //lrm:guardedby fields only touched with their mutex held
//	asmvet      .s kernels must agree with their Go prototypes (ABI0)
//
// Usage:
//
//	go run ./cmd/lrmlint ./...
//	go run ./cmd/lrmlint -list
//	go run ./cmd/lrmlint -json lrm/internal/engine
//
// Findings print as file:line:col: analyzer: message, or as a JSON array
// of {analyzer, file, line, col, message} objects with -json. The exit
// status is 0 when the tree is clean, 1 when there are findings, 2 on
// usage or load errors — the contract the CI job relies on. Point
// suppressions use a //lint:ignore <analyzer> <justification> comment on
// or directly above the flagged line; the justification is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lrm/internal/lint"
)

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// run is main with its environment injected: exit status 0 for a clean
// tree, 1 for findings, 2 for usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and their contracts, then exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lrmlint [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(patterns, lint.All())
	if err != nil {
		fmt.Fprintf(stderr, "lrmlint: %v\n", err)
		return 2
	}
	if *asJSON {
		out := make([]jsonFinding, len(diags))
		for i, d := range diags {
			out[i] = jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "lrmlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lrmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
