package feedback

import (
	"encoding/json"
	"fmt"
)

// Fold is the cluster-side counterpart of the Collector's replay path:
// a pure, in-memory fold of WAL record payloads into realized-profit
// aggregates and a Page-Hinkley drift detector. The coordinator feeds
// it the records of every shipped segment in a deterministic total
// order (node, segment sequence, record index), so two folds over the
// same segment set produce bit-identical Stats no matter how the
// segments arrived.
//
// The aggregates count every outcome — they are order-independent
// sums. The detector needs more care, because the cluster replay
// concatenates per-node streams rather than interleaving them by wall
// clock, and a fleet of N replicas serving the same model journals N
// registrations of the same content key:
//
//   - Each node's current model key is tracked from its own
//     registrations (per-node order is the node's true append order).
//   - The cluster's model EPISODE is the registration with the highest
//     (version, key) — a max over the record set, so it lands on the
//     same episode regardless of how nodes interleave. The detector
//     resets when the episode's content key changes.
//   - An outcome feeds the detector only while its node is serving the
//     episode key. A node whose stream still carries pre-refresh
//     outcomes cannot re-trip the alarm against the refreshed model,
//     and a node that lags the fleet is excluded until it syncs.
//
// For a single node this degenerates to exactly the Collector's own
// behavior: every journaled registration is a key change, each opens a
// new episode, and every outcome is attributed to it.
//
// Fold is not safe for concurrent use; the owning spool serializes.
type Fold struct {
	agg      *aggregates
	det      *detector
	perNode  map[string]string // node identity → current model key
	bestVer  int               // episode registration version
	modelKey string            // episode content key
	outcomes int64
}

// NewFold creates an empty fold with the given drift configuration.
func NewFold(cfg DriftConfig) *Fold {
	return &Fold{agg: newAggregates(), det: newDetector(cfg), perNode: make(map[string]string)}
}

// FoldRecord is one WAL record payload decoded and reduced to the
// fields a Fold reads. The cluster spool decodes each shipped segment
// into these once, at admission, so a refold in a new total order
// re-applies decoded records instead of re-parsing JSON.
type FoldRecord struct {
	model  bool // a model registration chunk; otherwise an outcome
	last   bool // registration: the final chunk, which commits key
	bought bool // outcome

	modelVersion int // outcome: the version that served it
	version      int // registration version

	ruleID string // outcome
	key    string // registration content key (final chunk only)

	qty, realized, projected float64 // outcome
}

// DecodeRecord decodes one WAL record payload with the strictness of
// Apply: the whole record, a registration's rule projections included,
// must decode, and an unknown record kind is an error. A shipped
// segment comes from a peer running this codebase, so an unknown kind
// means corruption or version skew, not forward compatibility to be
// silently skipped.
func DecodeRecord(payload []byte) (FoldRecord, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return FoldRecord{}, fmt.Errorf("feedback: undecodable record: %w", err)
	}
	switch rec.Kind {
	case "outcome":
		return FoldRecord{
			bought:       rec.Bought,
			modelVersion: rec.ModelVersion,
			ruleID:       rec.RuleID,
			qty:          rec.Qty,
			realized:     rec.Realized,
			projected:    rec.Projected,
		}, nil
	case "model":
		// Projections are not kept: outcome records are self-contained
		// (projected and realized stamped at append), so the fold needs
		// only the completed registration's key and version for
		// drift-episode bookkeeping.
		return FoldRecord{model: true, last: rec.Last, version: rec.Version, key: rec.Key}, nil
	}
	return FoldRecord{}, fmt.Errorf("feedback: unknown record kind %q", rec.Kind)
}

// Apply folds one WAL record payload shipped by node: DecodeRecord,
// then ApplyRecord.
func (f *Fold) Apply(node string, payload []byte) error {
	r, err := DecodeRecord(payload)
	if err != nil {
		return err
	}
	f.ApplyRecord(node, r)
	return nil
}

// ApplyRecord folds one decoded record shipped by node (any stable node
// identity; the spool uses the hashed node component of its key).
func (f *Fold) ApplyRecord(node string, r FoldRecord) {
	if !r.model {
		f.outcomes++
		f.agg.apply(r.ruleID, r.modelVersion, r.bought, r.qty, r.realized, r.projected)
		if f.modelKey == "" || f.perNode[node] == f.modelKey {
			f.det.observe(r.projected - r.realized)
		}
		return
	}
	if !r.last {
		return
	}
	f.perNode[node] = r.key
	newer := r.version > f.bestVer || (r.version == f.bestVer && r.key > f.modelKey)
	if newer {
		f.bestVer = r.version
		if r.key != f.modelKey {
			f.modelKey = r.key
			f.det.reset()
		}
	}
}

// Stats snapshots the fold with the same deterministic ordering and
// sorted-order totals as the Collector (limit semantics match
// Collector.Stats).
func (f *Fold) Stats(limit int) Stats {
	return f.agg.snapshot(limit, f.det.state())
}

// Drifting reports the detector flag.
func (f *Fold) Drifting() bool { return f.det.drifting }

// ModelKey returns the content key of the current model episode — the
// highest-versioned completed registration in the stream ("" before
// any). It is the drift-episode key the coordinator uses to fire
// exactly one refresh per alarm; a repeat registration of the episode
// key (another replica of the same model) never re-keys the episode.
func (f *Fold) ModelKey() string { return f.modelKey }

// Outcomes returns the number of outcome records folded so far.
func (f *Fold) Outcomes() int64 { return f.outcomes }
