package incremental

import (
	"fmt"
	"sync"

	"profitmining/internal/core"
	"profitmining/internal/model"
	"profitmining/internal/registry"
)

// RefreshConfig wires a Refresher.
type RefreshConfig struct {
	// Maintainer is the windowed model state to slide on each refresh.
	Maintainer *Maintainer
	// Catalog is the catalog the model was built over, submitted with
	// every candidate.
	Catalog *model.Catalog
	// Source is the transaction stream refreshes draw from; Start is the
	// index of the first transaction the first refresh feeds. The stream
	// wraps around when exhausted.
	Source []model.Transaction
	Start  int
	// Slide is how many transactions each refresh slides the window by.
	Slide int
	// Registry receives the refreshed candidates.
	Registry *registry.Registry
	// Logf, when non-nil, receives one line per refresh.
	Logf func(format string, args ...any)
}

// Refresher turns drift alarms into windowed delta refreshes: each
// Refresh slides the maintainer's window forward over the source stream
// and submits the refreshed model to the registry, where it flows
// through the usual validate → shadow → promote lifecycle. Safe for
// concurrent use: refreshes serialize on a mutex, so a drift alarm
// firing during a manual refresh queues rather than races.
type Refresher struct {
	mu    sync.Mutex
	maint *Maintainer
	cfg   RefreshConfig
	pos   int
	logf  func(format string, args ...any)
}

// NewRefresher validates the wiring and returns a Refresher.
func NewRefresher(cfg RefreshConfig) (*Refresher, error) {
	if cfg.Maintainer == nil {
		return nil, fmt.Errorf("incremental: refresher needs a maintainer")
	}
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("incremental: refresher needs a catalog")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("incremental: refresher needs a registry")
	}
	if len(cfg.Source) == 0 {
		return nil, fmt.Errorf("incremental: refresher needs a transaction source")
	}
	if cfg.Slide < 1 || cfg.Slide > len(cfg.Source) {
		return nil, fmt.Errorf("incremental: slide %d outside source of %d", cfg.Slide, len(cfg.Source))
	}
	if c := cfg.Maintainer.Capacity(); cfg.Slide > c {
		return nil, fmt.Errorf("incremental: slide %d exceeds window capacity %d", cfg.Slide, c)
	}
	if cfg.Start < 0 || cfg.Start >= len(cfg.Source) {
		return nil, fmt.Errorf("incremental: start %d outside source of %d", cfg.Start, len(cfg.Source))
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Refresher{maint: cfg.Maintainer, cfg: cfg, pos: cfg.Start, logf: logf}, nil
}

// Refresh slides the window by one batch and submits the refreshed
// model. The snapshot is non-nil when the outcome is Promoted or Staged.
func (r *Refresher) Refresh() (*registry.Snapshot, registry.Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	batch := make([]model.Transaction, r.cfg.Slide)
	n := len(r.cfg.Source)
	for i := range batch {
		batch[i] = r.cfg.Source[(r.pos+i)%n]
	}
	at := r.pos
	r.pos = (r.pos + r.cfg.Slide) % n

	rec, err := r.maint.Slide(batch)
	if err != nil {
		return nil, registry.Rejected, fmt.Errorf("incremental: refresh slide: %w", err)
	}

	source := fmt.Sprintf("delta refresh @%d (window %d, slide %d)", at, r.maint.Len(), r.cfg.Slide)
	return r.submit(rec, source)
}

// SubmitCurrent submits the maintainer's current model without sliding —
// the way the initial windowed model enters the registry at startup.
func (r *Refresher) SubmitCurrent(source string) (*registry.Snapshot, registry.Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.submit(r.maint.Recommender(), source)
}

// submit hands one candidate to the registry, which stamps it with its
// sealed image's digest — the identity the same model carries when it
// arrives through a model file or a cluster sync. Callers hold r.mu.
func (r *Refresher) submit(rec *core.Recommender, source string) (*registry.Snapshot, registry.Outcome, error) {
	return r.cfg.Registry.Submit(r.cfg.Catalog, rec, source, "")
}

// OnDrift adapts Refresh to the feedback collector's drift hook
// signature, logging instead of returning errors.
func (r *Refresher) OnDrift() {
	snap, outcome, err := r.Refresh()
	if err != nil {
		r.logf("incremental: drift refresh rejected: %v", err)
		return
	}
	r.logf("incremental: drift refresh %s (version %d, %.8s)", outcome, snap.Version, snap.Hash)
}
