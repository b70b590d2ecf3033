package feedback

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrUnknownRule rejects an outcome whose ruleID matches no rule any
// registered model has served. The serving layer maps it to HTTP 422.
var ErrUnknownRule = errors.New("feedback: unknown rule")

// Config assembles a Collector.
type Config struct {
	// Dir is the WAL directory. Empty runs the collector in-memory:
	// no durability, no replay — the mode unit tests and ad-hoc serving
	// use.
	Dir string

	// WAL tunes durability and rotation (ignored when Dir is empty).
	WAL WALOptions

	// Drift tunes the Page-Hinkley detector.
	Drift DriftConfig

	// OnDrift, when non-nil, fires once per drift episode — on the
	// observation that flips the detector — from its own goroutine, so a
	// slow operator hook cannot stall outcome ingestion. Replay never
	// fires it: drift during replay is history, not news.
	OnDrift func()

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Outcome is one customer-outcome report, normally arriving through
// POST /outcome.
type Outcome struct {
	RequestID    string  // client correlation ID, stored verbatim
	RuleID       string  // stable rule ID from the recommendation
	ModelVersion int     // model version that served the recommendation
	Bought       bool    // did the customer take the promotion?
	Qty          float64 // units bought (0 with Bought defaults to 1)
	PaidPrice    float64 // actual unit price paid (0 defaults to the promo price)
}

// Receipt acknowledges an accepted outcome.
type Receipt struct {
	Seq      int64 `json:"seq"`      // durable sequence number of the record
	Drifting bool  `json:"drifting"` // detector state after folding this outcome in
}

// RuleProjection is what the model claimed about one rule at promotion
// time — the numbers realized outcomes are audited against.
type RuleProjection struct {
	ID     string  `json:"id"`
	ProfRe float64 `json:"profRe"` // projected profit per firing
	Conf   float64 `json:"conf"`   // mined confidence
	Price  float64 `json:"price"`  // promo price offered
	Cost   float64 `json:"cost"`   // unit cost
}

// record is the WAL payload schema (JSON). Outcome records stamp the
// projected and realized profit at append time, so replay reconstructs
// identical statistics without needing the model that was serving —
// the log is self-contained.
type record struct {
	Kind string `json:"kind"` // "outcome" or "model"
	Seq  int64  `json:"seq"`

	// Outcome fields.
	RequestID    string  `json:"requestID,omitempty"`
	RuleID       string  `json:"ruleID,omitempty"`
	ModelVersion int     `json:"modelVersion,omitempty"`
	Bought       bool    `json:"bought,omitempty"`
	Qty          float64 `json:"qty,omitempty"`
	PaidPrice    float64 `json:"paidPrice,omitempty"`
	Projected    float64 `json:"projected,omitempty"`
	Realized     float64 `json:"realized,omitempty"`

	// Model fields. A registration is appended only when a promotion
	// actually changes the rule content being served, and doubles as the
	// replayable drift-reset marker. Large models are split across
	// several chunk records; the final chunk carries Last and the
	// content key, so a registration torn by a crash commits nothing and
	// is simply re-journaled on the next registration attempt.
	Version int              `json:"version,omitempty"`
	Hash    string           `json:"hash,omitempty"`
	Rules   []RuleProjection `json:"rules,omitempty"`
	Key     string           `json:"key,omitempty"`  // projection key of the full rule list (final chunk only)
	Last    bool             `json:"last,omitempty"` // final chunk: commit the key and reset the detector
}

// maxModelChunkRules bounds how many rule projections ride in one model
// record, keeping even very large models far below the WAL's
// per-record frame limit (a projection marshals to ~150 bytes against
// maxRecordBytes of 1 MiB).
const maxModelChunkRules = 2048

// Collector is the closed-loop state machine: it journals outcomes to
// the WAL, folds them into realized-profit aggregates, and runs the
// drift detector. All methods are safe for concurrent use.
type Collector struct {
	cfg Config

	mu          sync.Mutex
	wal         *WAL // nil in in-memory mode
	agg         *aggregates
	det         *detector
	seq         int64
	projections map[string]RuleProjection // rule ID → latest projection
	modelKey    string                    // content key of the last registered model
	live        bool                      // false during replay: no WAL writes, no hooks
}

// Open builds a Collector. With a WAL directory configured it first
// replays the existing log (rebuilding aggregates, projections, and the
// drift detector to exactly the pre-restart state) and then opens the
// log for appending — tail repair in OpenWAL and tail tolerance in
// Replay agree byte-for-byte on where a crashed log ends.
func Open(cfg Config) (*Collector, ReplayStats, error) {
	c := &Collector{
		cfg:         cfg,
		agg:         newAggregates(),
		det:         newDetector(cfg.Drift),
		projections: make(map[string]RuleProjection),
	}
	var rs ReplayStats
	if cfg.Dir != "" {
		var err error
		rs, err = Replay(cfg.Dir, c.apply)
		if err != nil {
			return nil, rs, err
		}
		w, err := OpenWAL(cfg.Dir, cfg.WAL)
		if err != nil {
			return nil, rs, err
		}
		c.wal = w
		if cfg.Logf != nil && rs.Records > 0 {
			cfg.Logf("feedback: replayed %d records from %d segment(s), dropped %d torn tail byte(s)",
				rs.Records, rs.Segments, rs.DroppedBytes)
		}
	}
	c.live = true
	return c, rs, nil
}

// apply decodes one WAL payload and folds it in: the replay path.
func (c *Collector) apply(payload []byte) error {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("feedback: undecodable record: %w", err)
	}
	if rec.Kind != "outcome" && rec.Kind != "model" {
		return fmt.Errorf("feedback: unknown record kind %q", rec.Kind)
	}
	c.applyRecord(rec)
	return nil
}

// applyRecord folds one journaled record into in-memory state. Replay
// (live=false) runs it after decoding, and Record and RegisterModel
// after each append, so the two paths cannot diverge.
func (c *Collector) applyRecord(rec record) {
	if rec.Kind == "outcome" {
		if rec.Seq > c.seq {
			c.seq = rec.Seq
		}
		c.agg.apply(rec.RuleID, rec.ModelVersion, rec.Bought, rec.Qty, rec.Realized, rec.Projected)
		c.observe(rec.Projected - rec.Realized)
		return
	}
	for _, p := range rec.Rules {
		c.projections[p.ID] = p
	}
	// Only a completed registration (final chunk present) commits the
	// model key and resets the detector; a torn one leaves both
	// untouched so the next registration re-journals it in full.
	if rec.Last {
		c.modelKey = rec.Key
		c.det.reset()
	}
}

// observe feeds the detector and, live only, fires the drift hook on
// the flipping observation.
func (c *Collector) observe(shortfall float64) {
	if !c.det.observe(shortfall) || !c.live {
		return
	}
	if c.cfg.Logf != nil {
		c.cfg.Logf("feedback: drift detected at observation %d (PH stat %.4f > λ %.4f, mean shortfall %.4f)",
			c.det.trigger, c.det.cum-c.det.min, c.det.cfg.Lambda, c.det.mean)
	}
	if c.cfg.OnDrift != nil {
		//lint:allow leakcheck -- fire-and-forget by documented contract: OnDrift runs off the Record path so a slow rebuild cannot block outcome ingestion, and the hook owner (profitserve's rebuild trigger) serializes and bounds its own work
		go c.cfg.OnDrift()
	}
}

// Record journals one outcome and folds it into the aggregates and the
// drift detector. The write-ahead ordering is strict: the record is in
// the WAL (fsynced per policy) before any in-memory state changes, so a
// crash can lose at most un-applied appends — never applied-but-unlogged
// state.
//
//wal:ack
func (c *Collector) Record(o Outcome) (Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	proj, ok := c.projections[o.RuleID]
	if !ok {
		c.agg.unknownRules++
		return Receipt{}, fmt.Errorf("%w: %s", ErrUnknownRule, o.RuleID)
	}
	qty := o.Qty
	if o.Bought && qty <= 0 {
		qty = 1
	}
	paid := o.PaidPrice
	if o.Bought && paid <= 0 {
		paid = proj.Price
	}
	var realized float64
	if o.Bought {
		realized = (paid - proj.Cost) * qty
	}
	rec := record{
		Kind:         "outcome",
		Seq:          c.seq + 1,
		RequestID:    o.RequestID,
		RuleID:       o.RuleID,
		ModelVersion: o.ModelVersion,
		Bought:       o.Bought,
		Qty:          qty,
		PaidPrice:    paid,
		Projected:    proj.ProfRe,
		Realized:     realized,
	}
	if err := c.append(rec); err != nil {
		return Receipt{}, err
	}
	c.applyRecord(rec)
	return Receipt{Seq: c.seq, Drifting: c.det.drifting}, nil
}

// RegisterModel installs the rule projections of a freshly promoted
// model. Projections overlay rather than replace — a late outcome for a
// rule the previous model served still joins. When the rule content
// actually changed (new content key), the promotion is journaled as a
// model record and the drift detector resets: the alarm's history
// described a model that is no longer serving. Re-registering identical
// content (e.g. the same model file reloaded at restart) is a no-op, so
// restarts neither spam the log nor silence a standing alarm.
//
//wal:ack
func (c *Collector) RegisterModel(version int, hash string, rules []RuleProjection) error {
	key := projectionKey(rules)
	c.mu.Lock()
	defer c.mu.Unlock()
	if key == c.modelKey {
		//lint:allow walorder -- no-op by design: identical content is already journaled, so there is nothing new to make durable before acking
		return nil
	}
	wasDrifting := c.det.drifting
	// The loop body always runs at least once — an empty rule set still
	// journals a single (empty, Last) model record — and the success
	// return below is only reachable through it, so the promotion is in
	// the WAL before RegisterModel acks. Each chunk is folded in as it
	// is journaled, so a failed later chunk leaves the overlay replay
	// would rebuild from the same log.
	for start := 0; ; {
		end := min(start+maxModelChunkRules, len(rules))
		rec := record{Kind: "model", Version: version, Hash: hash, Rules: rules[start:end]}
		if end == len(rules) {
			rec.Key, rec.Last = key, true
		}
		if err := c.append(rec); err != nil {
			return err
		}
		c.applyRecord(rec)
		if end == len(rules) {
			break
		}
		start = end
	}
	if c.cfg.Logf != nil && wasDrifting {
		c.cfg.Logf("feedback: drift detector reset by promotion of model v%d", version)
	}
	return nil
}

// append marshals and journals one record (no-op in in-memory mode).
// Callers hold c.mu.
//
//wal:ack
func (c *Collector) append(rec record) error {
	if c.wal == nil {
		//lint:allow walorder -- in-memory mode (no WAL configured) has no durability contract; stats are explicitly process-lifetime only
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("feedback: encoding record: %w", err)
	}
	return c.wal.Append(payload)
}

// projectionKey is a content hash over a model's rule projections in
// registration order; two models with identical served rule content map
// to the same key regardless of version numbering.
func projectionKey(rules []RuleProjection) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range rules {
		h.Write([]byte(p.ID))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.ProfRe))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Drifting reports the detector flag.
func (c *Collector) Drifting() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.det.drifting
}

// Drift returns the detector's full state.
func (c *Collector) Drift() DriftState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.det.state()
}

// Stats snapshots the aggregates. limitRules > 0 truncates the per-rule
// list to the busiest rules; negative returns totals only (no lists);
// totals always cover everything.
func (c *Collector) Stats(limitRules int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.snapshot(limitRules, c.det.state())
}

// LogSize reports the WAL footprint (0, 0 in in-memory mode).
func (c *Collector) LogSize() (bytes int64, segments int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return 0, 0, nil
	}
	return c.wal.Size()
}

// Rotate seals the live WAL segment on demand so its records become
// shippable (no-op in in-memory mode, and when the live segment is
// empty). The cluster shipper calls this each shipping tick: sealed
// segments are immutable and fully fsynced, so they can be read and
// content-addressed without racing the appender.
func (c *Collector) Rotate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	return c.wal.Rotate()
}

// Sync forces the WAL to disk (no-op in in-memory mode).
func (c *Collector) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	return c.wal.Sync()
}

// Close syncs and closes the WAL. The collector must not be used after.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	err := c.wal.Close()
	c.wal = nil
	return err
}
