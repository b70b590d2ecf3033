// Package incremental maintains a profit-mining model over a sliding
// transaction window, so drift recovery refreshes the model from the
// window it holds instead of retraining from the data source.
//
// A Maintainer pairs mining.Stream (the window and its expansions,
// re-mined on every slide with mining.Mine's loop) and core.TreeDelta
// (core.Build over the new window) behind one Slide call whose result
// is byte-identical to a batch mining.Mine + core.Build over the same
// window: it runs the same code. A Refresher wires a Maintainer to the
// model registry so the feedback collector's OnDrift hook can stage a
// refreshed candidate through the usual validate → shadow → promote
// path.
package incremental

import (
	"fmt"

	"profitmining/internal/core"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
)

// Config configures a Maintainer. Mining and Core must match what a
// batch build over the same window would use — byte-identity is defined
// against mining.Mine(space, window, Mining) + core.Build(…, Core).
type Config struct {
	Mining mining.Options
	Core   core.Config

	// Capacity is the maximum window length; when a Slide would exceed
	// it, the oldest transactions are evicted first. 0 means the initial
	// window length.
	Capacity int
}

// Maintainer holds one sliding window and the model built over it. It
// is not safe for concurrent use (the Refresher serializes access).
type Maintainer struct {
	space    *hierarchy.Space
	capacity int

	stream *mining.Stream
	tree   *core.TreeDelta
	rec    *core.Recommender
}

// New builds the initial model over window and returns a Maintainer
// positioned on it.
func New(space *hierarchy.Space, window []model.Transaction, cfg Config) (*Maintainer, error) {
	if space == nil {
		return nil, fmt.Errorf("incremental: nil space")
	}
	if len(window) == 0 {
		return nil, fmt.Errorf("incremental: empty initial window")
	}
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = len(window)
	}
	if capacity < len(window) {
		return nil, fmt.Errorf("incremental: initial window of %d exceeds capacity %d", len(window), capacity)
	}
	stream, err := mining.NewStream(space, window, cfg.Mining)
	if err != nil {
		return nil, err
	}
	tree, err := core.NewTreeDelta(space, cfg.Core)
	if err != nil {
		return nil, err
	}
	rec, err := tree.Update(stream.Window(), stream.ExpandedBodies(), stream.Result(), 0)
	if err != nil {
		return nil, err
	}
	return &Maintainer{space: space, capacity: capacity, stream: stream, tree: tree, rec: rec}, nil
}

// Slide appends incoming to the window, evicting the oldest
// transactions when the capacity would be exceeded, and returns the
// refreshed recommender. An empty incoming slice is a no-op: nothing
// enters or leaves the window, so the current model is returned
// unchanged.
func (m *Maintainer) Slide(incoming []model.Transaction) (*core.Recommender, error) {
	if len(incoming) > m.capacity {
		return nil, fmt.Errorf("incremental: slide of %d exceeds window capacity %d", len(incoming), m.capacity)
	}
	if len(incoming) == 0 {
		return m.rec, nil
	}
	evict := m.stream.Len() + len(incoming) - m.capacity
	if evict < 0 {
		evict = 0
	}
	mined, err := m.stream.Slide(incoming, evict)
	if err != nil {
		return nil, err
	}
	rec, err := m.tree.Update(m.stream.Window(), m.stream.ExpandedBodies(), mined, evict)
	if err != nil {
		return nil, err
	}
	m.rec = rec
	return rec, nil
}

// Recommender returns the model over the current window.
func (m *Maintainer) Recommender() *core.Recommender { return m.rec }

// Window returns the current window, oldest first. The slice is owned
// by the maintainer; callers must not modify it.
func (m *Maintainer) Window() []model.Transaction { return m.stream.Window() }

// Len returns the current window length.
func (m *Maintainer) Len() int { return m.stream.Len() }

// Capacity returns the maximum window length.
func (m *Maintainer) Capacity() int { return m.capacity }
