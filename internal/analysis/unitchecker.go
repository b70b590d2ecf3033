package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool` driver protocol, the same
// contract x/tools' unitchecker speaks, so `cmd/profitlint` can be run
// by the go command with full build-cache integration:
//
//	go vet -vettool=$(go env GOPATH)/bin/profitlint ./...
//
// The protocol, reverse-engineered from cmd/go/internal/work and
// unitchecker and kept deliberately small:
//
//   - `tool -V=full` must print "<name> version ... buildID=<hash>" on
//     stdout; the go command uses it as a cache key, so the hash covers
//     the tool binary itself.
//   - `tool -flags` must print a JSON description of the tool's flags.
//   - `tool <file>.cfg` analyses one package. The cfg file is JSON
//     describing the package's files and, crucially, PackageFile: a map
//     from dependency package path to compiler export data, which lets
//     us type-check with the stdlib gc importer and no reimplementation
//     of export-data parsing.
//   - The tool must write cfg.VetxOutput (the "facts" file). We carry
//     no cross-package facts, so we write an empty file; the go command
//     only requires that it exists so it can be cached.
//   - Exit 0 when clean; diagnostics go to stderr and exit code 2.

// vetConfig mirrors the fields of the go command's vet.cfg we consume.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is profitlint's entry point. It speaks only the go vet driver
// protocol, so the go command does the package loading, caching and
// test-variant expansion:
//
//	go vet -vettool=$(go env GOPATH)/bin/profitlint ./...
//
// Invoked by hand it answers -list (the registered analyzers) and the
// protocol's -V=full and -flags queries. It never returns.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	versionFlag := fs.String("V", "", "print version and exit (go vet protocol)")
	flagsFlag := fs.Bool("flags", false, "print flag description as JSON and exit (go vet protocol)")
	listFlag := fs.Bool("list", false, "list registered analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(go env GOPATH)/bin/%s [packages]\n       %s -list\n\nregistered analyzers:\n", progname, progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, firstSentence(a.Doc))
		}
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	switch {
	case *versionFlag != "":
		printVersion(progname)
		os.Exit(0)
	case *flagsFlag:
		printFlags()
		os.Exit(0)
	case *listFlag:
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, firstSentence(a.Doc))
		}
		os.Exit(0)
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnitchecker(args[0], analyzers)
		panic("unreachable")
	}
	fs.Usage()
	os.Exit(2)
}

// printVersion emits the version line the go command hashes into its
// cache key. The binary's own digest stands in for a version number, so
// rebuilding the tool invalidates cached vet results.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f) //lint:allow droppederr -- best-effort hash; a short read only weakens the cache key
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	// No analyzer-selection flags are exposed: profitlint always runs
	// its full suite. An empty set tells the go command that no extra
	// flags may be forwarded.
	data, err := json.Marshal([]jsonFlag{})
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
}

func firstSentence(doc string) string {
	if i := strings.IndexAny(doc, ".\n"); i >= 0 {
		return doc[:i]
	}
	return doc
}

// runUnitchecker analyses the single package described by cfgFile and
// exits. It is only ever invoked by the go command.
func runUnitchecker(cfgFile string, analyzers []*Analyzer) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fatalf("cannot read vet config: %v", err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatalf("cannot parse vet config %s: %v", cfgFile, err)
	}

	// The go command analyses the whole dependency graph so tools can
	// propagate facts; we have none, so dependencies are a no-op, but
	// the facts file must still be written for the cache.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fatalf("cannot write facts output: %v", err)
		}
	}
	if cfg.VetxOnly {
		os.Exit(0)
	}

	pkg, err := typeCheckVetConfig(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		fatalf("%v", err)
	}
	diags, err := Run(pkg, analyzers)
	if err != nil {
		fatalf("%v", err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

func typeCheckVetConfig(cfg *vetConfig) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	// The gc importer's lookup receives already-resolved package paths;
	// ImportMap translates source-level import paths (vendoring, test
	// variants) to those resolved paths first.
	exportImporter := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		resolved, ok := cfg.ImportMap[importPath]
		if !ok {
			resolved = importPath
		}
		return exportImporter.Import(resolved)
	})

	info := NewTypesInfo()
	tconf := types.Config{Importer: imp}
	if cfg.GoVersion != "" {
		tconf.GoVersion = cfg.GoVersion
	}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "profitlint: "+format+"\n", args...)
	os.Exit(1)
}
