// Package registry is the model-lifecycle subsystem of the serving
// layer: a versioned registry of (Catalog, Recommender) snapshots with
// atomic hot-swap, a validation gate that rejects broken candidates
// before they can serve traffic, and an optional shadow-scoring stage
// that measures a candidate against the active model on live requests
// before promotion.
//
// The lifecycle is stage → validate → shadow → promote:
//
//   - A candidate model (freshly loaded from disk or built in-process)
//     enters through Submit, which runs the validation gate
//     (Validate): load integrity, a non-empty final rule set,
//     catalog/rule-reference integrity, and optional golden-basket
//     probes.
//   - With shadow scoring off, a valid candidate is promoted
//     immediately. With shadow scoring on, it is staged: the serving
//     layer replays a configurable fraction of live /recommend traffic
//     against it (ShadowSnapshot/RecordShadow) and the candidate is
//     auto-promoted once enough samples accumulate.
//   - Promotion is a single atomic pointer swap. Readers obtain the
//     catalog and recommender together through one Snapshot, so a
//     request can never observe a torn pair, and the hot path takes no
//     locks.
//
// Snapshots are immutable after promotion; in-flight requests holding
// an old snapshot finish against it while new requests see the new one.
package registry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/model"
)

// Snapshot is one immutable model version: the catalog and recommender
// are bound together so a reader can never observe a mismatched pair.
type Snapshot struct {
	Version  int       // monotonically increasing, assigned at Submit
	Hash     string    // the model's identity: its sealed image's embedded digest
	Source   string    // file path or a description such as "trained from data.pmjl"
	LoadedAt time.Time // when the snapshot entered the registry

	Cat *model.Catalog
	Rec *core.Recommender
}

// Options configures a Registry.
type Options struct {
	// Probes are golden baskets every candidate must answer with a
	// non-empty recommendation before it can be staged or promoted.
	Probes []Probe

	// ShadowFraction is the fraction of live /recommend traffic (0..1]
	// replayed against a staged candidate before promotion. 0 disables
	// shadow scoring: valid candidates promote immediately.
	ShadowFraction float64

	// ShadowMinSamples is how many shadowed requests a staged candidate
	// must accumulate before it is auto-promoted (default 32).
	ShadowMinSamples int

	// OnPromote, when non-nil, is called with each snapshot right after
	// it becomes active — the hook the feedback loop uses to register the
	// new model's rule projections and clear the drift detector. It runs
	// synchronously on whichever goroutine performed the promotion
	// (Submit, PromoteStaged, or the shadow auto-promote inside a request)
	// but outside the registry lock, so it may call back into the
	// registry. Keep it fast: a promotion is not complete until it
	// returns.
	OnPromote func(*Snapshot)
}

// ShadowStats reports how a staged candidate compared to the active
// model on the traffic replayed against it.
type ShadowStats struct {
	Sampled        int64   `json:"sampled"`        // requests replayed against the candidate
	Agreed         int64   `json:"agreed"`         // identical top-1 (item, promo) answers
	ProfitDeltaSum float64 `json:"profitDeltaSum"` // Σ (candidate profit − active profit) over samples
	Errors         int64   `json:"errors"`         // candidate failed to score a basket the active model served
}

// AgreementRate is Agreed/Sampled (0 when nothing was sampled).
func (s ShadowStats) AgreementRate() float64 {
	if s.Sampled == 0 {
		return 0
	}
	return float64(s.Agreed) / float64(s.Sampled)
}

// MeanProfitDelta is ProfitDeltaSum/Sampled (0 when nothing was sampled).
func (s ShadowStats) MeanProfitDelta() float64 {
	if s.Sampled == 0 {
		return 0
	}
	return s.ProfitDeltaSum / float64(s.Sampled)
}

// staging holds a validated candidate while shadow traffic accumulates.
type staging struct {
	snap   *Snapshot
	stride int64 // every stride-th request is shadowed

	counter  atomic.Int64 // requests seen while this candidate was staged
	sampled  atomic.Int64
	agreed   atomic.Int64
	errors   atomic.Int64
	deltaSum atomicFloat
}

// Registry holds the active model snapshot and, with shadow scoring
// enabled, at most one staged candidate. Active is lock-free; staging
// and promotion serialize on a mutex (they are rare control-plane
// operations).
type Registry struct {
	opts Options

	active atomic.Pointer[Snapshot]
	staged atomic.Pointer[staging]

	mu       sync.Mutex // serializes Submit/Promote and version numbering
	versions int
}

// New creates an empty registry. Options.ShadowFraction outside [0,1]
// or a negative ShadowMinSamples is an error.
func New(opts Options) (*Registry, error) {
	if opts.ShadowFraction < 0 || opts.ShadowFraction > 1 {
		return nil, fmt.Errorf("registry: shadow fraction %g outside [0,1]", opts.ShadowFraction)
	}
	if opts.ShadowMinSamples < 0 {
		return nil, fmt.Errorf("registry: negative shadow sample floor %d", opts.ShadowMinSamples)
	}
	if opts.ShadowMinSamples == 0 {
		opts.ShadowMinSamples = 32
	}
	return &Registry{opts: opts}, nil
}

// Active returns the serving snapshot (nil before the first promotion).
// It is lock-free and safe to call on every request.
func (r *Registry) Active() *Snapshot { return r.active.Load() }

// Staged returns the candidate currently under shadow scoring, or nil.
func (r *Registry) Staged() *Snapshot {
	if st := r.staged.Load(); st != nil {
		return st.snap
	}
	return nil
}

// Outcome reports what Submit (or a watcher poll) did with a candidate.
type Outcome int

const (
	// Unchanged: no new candidate (watcher: file not modified).
	Unchanged Outcome = iota
	// Promoted: the candidate passed validation and is now active.
	Promoted
	// Staged: the candidate passed validation and awaits shadow scoring.
	Staged
	// Rejected: the candidate failed validation; the active snapshot is untouched.
	Rejected
)

// String names the outcome for logs and /admin/reload responses.
func (o Outcome) String() string {
	switch o {
	case Unchanged:
		return "unchanged"
	case Promoted:
		return "promoted"
	case Staged:
		return "staged"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Submit runs the validation gate on a candidate and either promotes it
// (no active model yet, or shadow scoring disabled) or stages it for
// shadow scoring. A rejected candidate never disturbs the active
// snapshot. The returned snapshot carries the assigned version and the
// candidate's one identity, its sealed image's embedded digest, however
// the model arrived; the fourth argument is not consulted (callers that
// predate the single identity still pass one).
func (r *Registry) Submit(cat *model.Catalog, rec *core.Recommender, source, _ string) (*Snapshot, Outcome, error) {
	if err := Validate(cat, rec, r.opts.Probes); err != nil {
		return nil, Rejected, err
	}
	r.mu.Lock()
	r.versions++
	snap := &Snapshot{
		Version:  r.versions,
		Hash:     rec.Sealed().ContentHash(),
		Source:   source,
		LoadedAt: time.Now(),
		Cat:      cat,
		Rec:      rec,
	}
	if r.opts.ShadowFraction > 0 && r.active.Load() != nil {
		stride := int64(math.Round(1 / r.opts.ShadowFraction))
		if stride < 1 {
			stride = 1
		}
		r.staged.Store(&staging{snap: snap, stride: stride})
		r.mu.Unlock()
		return snap, Staged, nil
	}
	r.staged.Store(nil)
	r.active.Store(snap)
	r.mu.Unlock()
	r.notifyPromoted(snap)
	return snap, Promoted, nil
}

// notifyPromoted runs the OnPromote hook for a snapshot that just became
// active. Callers must not hold r.mu.
func (r *Registry) notifyPromoted(snap *Snapshot) {
	if r.opts.OnPromote != nil {
		r.opts.OnPromote(snap)
	}
}

// PromoteStaged force-promotes the staged candidate (the /admin/reload
// escape hatch when shadow traffic is too thin to auto-promote).
func (r *Registry) PromoteStaged() (*Snapshot, error) {
	r.mu.Lock()
	st := r.staged.Load()
	if st == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: no staged candidate")
	}
	r.staged.Store(nil)
	r.active.Store(st.snap)
	r.mu.Unlock()
	r.notifyPromoted(st.snap)
	return st.snap, nil
}

// ShadowSnapshot decides, per request, whether this request should also
// be replayed against the staged candidate. It returns the candidate
// snapshot for every stride-th request (stride ≈ 1/ShadowFraction) and
// nil otherwise. The deterministic stride avoids a global RNG on the
// hot path and still spreads samples evenly over traffic.
func (r *Registry) ShadowSnapshot() *Snapshot {
	st := r.staged.Load()
	if st == nil {
		return nil
	}
	if st.counter.Add(1)%st.stride != 0 {
		return nil
	}
	return st.snap
}

// RecordShadow accumulates one shadow comparison for the staged
// candidate: whether the top-1 answers agreed, the candidate-minus-
// active profit delta, and whether the candidate failed to score the
// basket at all. Once the candidate has ShadowMinSamples samples it is
// auto-promoted. Records for a candidate that was promoted or replaced
// mid-flight are dropped.
func (r *Registry) RecordShadow(snap *Snapshot, agreed bool, profitDelta float64, scoreErr error) {
	st := r.staged.Load()
	if st == nil || st.snap != snap {
		return
	}
	if scoreErr != nil {
		st.errors.Add(1)
	} else if agreed {
		st.agreed.Add(1)
	}
	st.deltaSum.Add(profitDelta)
	if st.sampled.Add(1) < int64(r.opts.ShadowMinSamples) {
		return
	}
	r.mu.Lock()
	promoted := false
	if cur := r.staged.Load(); cur == st {
		r.staged.Store(nil)
		r.active.Store(st.snap)
		promoted = true
	}
	r.mu.Unlock()
	if promoted {
		r.notifyPromoted(st.snap)
	}
}

// ShadowStats returns the accumulated comparison stats for the staged
// candidate (ok=false when nothing is staged).
func (r *Registry) ShadowStats() (ShadowStats, bool) {
	st := r.staged.Load()
	if st == nil {
		return ShadowStats{}, false
	}
	return ShadowStats{
		Sampled:        st.sampled.Load(),
		Agreed:         st.agreed.Load(),
		ProfitDeltaSum: st.deltaSum.Load(),
		Errors:         st.errors.Load(),
	}, true
}

// atomicFloat is a CAS-loop float64 accumulator: shadow deltas arrive
// from concurrent request goroutines, and the stats are advisory, so a
// lock-free add is enough (no ordering guarantees needed).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
