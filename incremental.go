package profitmining

import (
	"fmt"

	"profitmining/internal/incremental"
)

// Incremental is a profit-mining model maintained over a sliding window
// of transactions. It absorbs new transactions with Slide — evicting
// the oldest ones once the window is full — and re-mines and rebuilds
// the window with the code Build runs, reusing only the expansions of
// the transactions already in the window. The maintained model is
// byte-identical (as saved by WriteModel) to Build over the same window
// with the same options.
//
// It is not safe for concurrent use; the serving layer's drift
// refresher serializes access.
type Incremental struct {
	space *Space
	maint *incremental.Maintainer
}

// NewIncremental builds the initial model over ds.Transactions, which
// become the sliding window; the window capacity is the initial length.
func NewIncremental(ds *Dataset, opts Options) (*Incremental, error) {
	if ds == nil {
		return nil, fmt.Errorf("profitmining: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	space, err := compileSpace(ds.Catalog, opts)
	if err != nil {
		return nil, err
	}
	maint, err := incremental.New(space, ds.Transactions, incremental.Config{
		Mining: opts.miningOptions(),
		Core:   opts.coreConfig(),
	})
	if err != nil {
		return nil, err
	}
	return &Incremental{space: space, maint: maint}, nil
}

// Slide appends incoming transactions to the window, evicting the
// oldest ones once the capacity is exceeded, and returns the refreshed
// recommender.
func (inc *Incremental) Slide(incoming []Transaction) (*Recommender, error) {
	return inc.maint.Slide(incoming)
}

// Recommender returns the model over the current window.
func (inc *Incremental) Recommender() *Recommender { return inc.maint.Recommender() }

// Window returns the current window, oldest first. The slice is owned
// by the model; callers must not modify it.
func (inc *Incremental) Window() []Transaction { return inc.maint.Window() }

// Space returns the compiled generalized-sale space the model operates
// on.
func (inc *Incremental) Space() *Space { return inc.space }
