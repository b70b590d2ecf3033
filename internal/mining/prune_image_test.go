package mining_test

import (
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/quest"
)

// TestPrunedMineSealsTheSameImage builds a model from Mine's result and
// one from the exhaustive miner's, on every reference input and on a
// Dataset I sample, and requires byte-identical sealed images: the rules
// Mine leaves out never reach a model, and RulesGenerated still counts
// them.
func TestPrunedMineSealsTheSameImage(t *testing.T) {
	type input struct {
		name  string
		space *hierarchy.Space
		txns  []model.Transaction
		opts  mining.Options
	}
	var inputs []input
	for _, in := range mining.PruningInputs(t) {
		inputs = append(inputs, input{in.Name, in.Space, in.Txns, mining.Options{MinSupportCount: in.MinCount, MaxBodyLen: 3}})
	}
	ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{NumTransactions: 1500, NumItems: 60, Seed: 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"Dataset I", hierarchy.Flat(ds.Catalog, hierarchy.Options{MOA: true}), ds.Transactions, mining.Options{MinSupport: 0.02}})

	configs := []struct {
		name   string
		binary bool
		cfg    core.Config
	}{
		{"default", false, core.Config{}},
		{"prune-off", false, core.Config{Prune: core.PruneOff}},
		{"interest-1.5", false, core.Config{MinInterest: 1.5}},
		{"binary", true, core.Config{BinaryProfit: true}},
		{"cf-0.1", false, core.Config{CF: 0.1}},
	}
	for _, in := range inputs {
		for _, c := range configs {
			opts := in.opts
			opts.BinaryProfit = c.binary
			pruned, err := mining.Mine(in.space, in.txns, opts)
			if err != nil {
				t.Fatal(err)
			}
			all, err := mining.MineExhaustive(in.space, in.txns, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Build(in.space, in.txns, pruned, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Build(in.space, in.txns, all, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.Sealed().ContentHash(), want.Sealed().ContentHash(); g != w {
				t.Errorf("%s, %s: image %s from %d mined rules, %s from all %d", in.name, c.name, g, len(pruned.Rules), w, len(all.Rules))
			}
			if got.Stats() != want.Stats() {
				t.Errorf("%s, %s: stats %+v, want %+v", in.name, c.name, got.Stats(), want.Stats())
			}
		}
	}
}
