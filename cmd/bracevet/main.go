// Command bracevet runs the repo's determinism & wire-protocol analyzers
// (maporder, framecase, wallclock, globalrand, indexstats — see
// internal/lint) over a set of packages.
//
// Standalone:
//
//	go run ./cmd/bracevet ./...        # exit 1 if any finding
//	go run ./cmd/bracevet -list        # print the suite
//
// As a vet tool (unitchecker-compatible: -V=full, -flags, and *.cfg
// invocations from cmd/go):
//
//	go build -o bracevet ./cmd/bracevet
//	go vet -vettool=$PWD/bracevet ./...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/bigreddata/brace/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// cmd/go's vettool protocol probes before any real work: -V=full asks
	// for a version line to mix into the build cache key, -flags asks
	// which analyzer flags the tool accepts (none), and the real
	// invocation passes a single path ending in .cfg.
	if len(args) > 0 {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			fmt.Fprintln(stdout, "bracevet version v1.0.0")
			return 0
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runVetTool(args[0], stdout, stderr)
		}
	}

	fs := flag.NewFlagSet("bracevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
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

	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := lint.Run(lint.All(), pkgs)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "bracevet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
