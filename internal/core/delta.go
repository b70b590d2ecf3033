package core

import (
	"fmt"

	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
)

// TreeDelta builds the recommender of a sliding window: each Update is
// Build over the window after the slide, so its model is byte-identical
// to Build over the same window by construction. It keeps only the
// previous window length, to check each slide's arguments.
//
// A TreeDelta is not safe for concurrent use.
type TreeDelta struct {
	space   *hierarchy.Space
	cfg     Config
	prevLen int // window length at the previous Update
}

// NewTreeDelta validates the configuration and returns a TreeDelta whose
// first Update takes evicted = 0.
func NewTreeDelta(space *hierarchy.Space, cfg Config) (*TreeDelta, error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return &TreeDelta{space: space, cfg: cfg}, nil
}

// Update builds the recommender for the current window. txns is the
// full window after the slide (oldest first), expanded its per-txn
// basket expansions (mining.Stream.ExpandedBodies), mined the stream's
// latest result, and evicted how many transactions left the front of the
// window since the previous Update.
func (d *TreeDelta) Update(txns []model.Transaction, expanded [][]hierarchy.GenID, mined *mining.Result, evicted int) (*Recommender, error) {
	if mined == nil || mined.Default == nil {
		return nil, fmt.Errorf("core: nil mining result")
	}
	if len(expanded) != len(txns) {
		return nil, fmt.Errorf("core: %d expansions for %d transactions", len(expanded), len(txns))
	}
	if evicted < 0 || evicted > d.prevLen {
		return nil, fmt.Errorf("core: evicted %d outside previous window of %d", evicted, d.prevLen)
	}
	if nOld := d.prevLen - evicted; len(txns) < nOld {
		return nil, fmt.Errorf("core: window of %d cannot hold %d surviving transactions", len(txns), nOld)
	}
	rec, err := Build(d.space, txns, mined, d.cfg)
	if err != nil {
		return nil, err
	}
	d.prevLen = len(txns)
	return rec, nil
}
