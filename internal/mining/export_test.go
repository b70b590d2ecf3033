package mining

import (
	"fmt"
	"testing"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
)

// MineExhaustive exposes mineExhaustive to the external test package.
var MineExhaustive = mineExhaustive

// mineExhaustive is Mine allocating every rule that passes the
// thresholds, the dominated ones too: the reference Mine's pruning is
// checked against, and the miner the rule-lookup tests query.
func mineExhaustive(space *hierarchy.Space, txns []model.Transaction, opts Options) (*Result, error) {
	m, err := newMiner(space, opts, len(txns))
	if err != nil {
		return nil, err
	}
	m.exhaustive = true
	m.prepare(txns)
	return m.run(), nil
}

// PruningInput is one reference-test input, for the external package.
type PruningInput struct {
	Name     string
	Space    *hierarchy.Space
	Txns     []model.Transaction
	MinCount int
}

// PruningInputs returns the inputs TestMineKeepsExactlyTheFiringRules
// runs over.
func PruningInputs(tb testing.TB) []PruningInput {
	var out []PruningInput
	for i, tr := range pruningTrials(tb) {
		out = append(out, PruningInput{
			Name:     fmt.Sprintf("input %d (trial %d, moa=%v)", i, tr.index, tr.moa),
			Space:    tr.space,
			Txns:     tr.txns,
			MinCount: tr.minCount,
		})
	}
	return out
}
