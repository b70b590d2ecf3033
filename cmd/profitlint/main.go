// Profitlint is profitmining's project-specific static checker: the
// invariants the compiler cannot enforce (exact float comparison bans,
// the single-home MPF rank order, determinism of the mining core,
// never-dropped errors) become build failures instead of flaky
// benchmarks. See internal/analyzers for the individual checks.
//
// It runs as the go command's vet tool, which loads and caches packages
// and analyses test files too; any finding fails the run:
//
//	go install ./cmd/profitlint
//	go vet -vettool=$(go env GOPATH)/bin/profitlint ./...
//
// profitlint -list names the registered analyzers.
package main

import (
	"profitmining/internal/analysis"
	"profitmining/internal/analyzers"
)

// suite is the registered analyzer set; cmd/profitlint's test pins it.
var suite = analyzers.All()

func main() {
	analysis.Main(suite...)
}
