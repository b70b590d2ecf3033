package simload

import (
	"container/heap"
	"fmt"
	"math/rand"
	"net/http"

	"profitmining/internal/datagen"
	"profitmining/internal/model"
)

// Config parameterizes one virtual-clock simulation run.
type Config struct {
	// BaseURL is the server under test — a single serve node or a
	// cluster coordinator; the simulator only speaks the common wire
	// surface (/recommend, /outcome, /feedback/stats).
	BaseURL string
	// Client, when non-nil, overrides the HTTP client.
	Client *http.Client

	// Dataset and Truth come from datagen.GenerateWithTruth over the
	// same data the served model was mined from.
	Dataset *model.Dataset
	Truth   *datagen.GroundTruth

	// Users is the population size.
	Users int
	// Seed drives every random draw of the run.
	Seed int64
	// Duration is the virtual length of the run in seconds.
	Duration float64

	// Arrival shapes the session-arrival process.
	Arrival ArrivalConfig
	// MeanSessionSteps is the mean number of recommend→outcome steps per
	// session (default 3; sessions draw uniformly from [1, 2·mean−1]).
	MeanSessionSteps int
	// MeanThink is the mean virtual think time between session steps in
	// seconds (default 1, exponentially distributed).
	MeanThink float64
	// ZipfS and ZipfV skew transaction popularity within a user's home
	// cell (defaults 1.2 and 1): rank 0 — the cell's hottest basket — is
	// drawn far more often than the tail, per Zipf's law.
	ZipfS, ZipfV float64

	// ShockAt, when positive, shifts buyer behavior at that virtual
	// time: from then on every purchase probability is multiplied by
	// ShockFactor. A factor well below 1 makes realized profit fall
	// short of the served model's projections — the canonical drift the
	// soak harness must detect and recover from.
	ShockAt     float64
	ShockFactor float64

	// OnDrift, when non-nil, is invoked synchronously (on the event
	// loop) when an outcome receipt reports the detector drifting. It is
	// latched: after one invocation it does not fire again until the
	// serving model version changes — one delta refresh per alarm, not
	// one per drifting outcome. This synchronous path is what keeps
	// drift-triggered refreshes deterministic; the collector's own async
	// OnDrift hook must stay unset in deterministic runs.
	OnDrift func()

	// OnCheck, when non-nil, runs synchronously every CheckEvery
	// outcomes — the hook cluster harnesses use to ship WAL segments and
	// poll the coordinator's spool at deterministic points.
	CheckEvery int
	OnCheck    func()
}

func (cfg Config) withDefaults() Config {
	if cfg.MeanSessionSteps <= 0 {
		cfg.MeanSessionSteps = 3
	}
	if cfg.MeanThink <= 0 {
		cfg.MeanThink = 1
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.ZipfV < 1 {
		cfg.ZipfV = 1
	}
	if cfg.ShockFactor <= 0 {
		cfg.ShockFactor = 1
	}
	return cfg
}

// Result aggregates one simulation run.
type Result struct {
	Sessions    int64 // sessions started
	Steps       int64 // session steps executed
	Recommends  int64 // steps that received a recommendation
	NoRec       int64 // steps the model had nothing to recommend
	Outcomes    int64 // outcome reports acked by the server
	Conversions int64 // outcomes with bought=true
	DriftAlarms int64 // OnDrift invocations
	Checks      int64 // OnCheck invocations

	RecommendErrors int64
	OutcomeErrors   int64
	Dropped         int64 // RecommendErrors + OutcomeErrors

	// FinalStats is the raw /feedback/stats body fetched after the last
	// event — the bytes the determinism gate compares across runs.
	FinalStats []byte

	// Client is the HTTP client the run used; its base URL answers the
	// same wire surface after the run (harnesses read a fleet's final
	// /feedback/stats through it).
	Client *Client
}

// event kinds.
const (
	evArrival = iota // a new session starts; chains the next arrival
	evStep           // one recommend→outcome step of a session
)

type event struct {
	at        float64
	seq       int64 // tiebreak: push order
	kind      int
	user      int
	stepsLeft int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at { //lint:allow floatcmp -- exact tie detection for the deterministic heap order; ties fall through to seq
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) push(e *event, seq *int64) {
	e.seq = *seq
	*seq++
	heap.Push(h, *e)
}

// Run executes one virtual-clock simulation: a single-threaded
// discrete-event loop over session arrivals and steps, issuing real
// HTTP requests in event order. Deterministic for a fixed (Config,
// server state): the same seed produces the same schedule, the same
// request bytes in the same order, and therefore — against a
// deterministic server — bit-identical final /feedback/stats.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("simload: BaseURL is required")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("simload: Duration must be positive")
	}
	if cfg.Arrival.BaseRate <= 0 {
		return nil, fmt.Errorf("simload: Arrival.BaseRate must be positive")
	}
	pop, err := NewPopulation(cfg.Dataset, cfg.Truth, cfg.Users)
	if err != nil {
		return nil, err
	}
	buy, err := NewBuyModel(cfg.Truth)
	if err != nil {
		return nil, err
	}
	client := NewClient(cfg.BaseURL, cfg.Client)
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipfs := make([]*rand.Zipf, len(pop.CellTxns))

	res := &Result{Client: client}
	var (
		events    eventHeap
		seq       int64
		outSeq    int64
		latched   bool
		lastModel = -1
	)
	if t0 := cfg.Arrival.Next(0, rng); t0 <= cfg.Duration {
		events.push(&event{at: t0, kind: evArrival}, &seq)
	}

	for events.Len() > 0 {
		e := heap.Pop(&events).(event)
		switch e.kind {
		case evArrival:
			res.Sessions++
			user := rng.Intn(cfg.Users)
			steps := 1 + rng.Intn(2*cfg.MeanSessionSteps-1)
			events.push(&event{at: e.at, kind: evStep, user: user, stepsLeft: steps}, &seq)
			if next := cfg.Arrival.Next(e.at, rng); next <= cfg.Duration {
				events.push(&event{at: next, kind: evArrival}, &seq)
			}

		case evStep:
			res.Steps++
			cell := pop.HomeCell[e.user]
			pool := pop.CellTxns[cell]
			txn := pool[0]
			if len(pool) > 1 {
				if zipfs[cell] == nil {
					zipfs[cell] = rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(len(pool)-1))
				}
				txn = pool[zipfs[cell].Uint64()]
			}

			rec, err := client.Recommend(pop.Payloads[txn])
			switch {
			case err != nil:
				// Accounted in the ledger; the session moves on.
			case rec == nil:
				res.NoRec++
			default:
				res.Recommends++
				if rec.ModelVersion != lastModel {
					lastModel = rec.ModelVersion
					latched = false
				}
				p := buy.Probability(cell, rec.Item, rec.PromoIx)
				if cfg.ShockAt > 0 && e.at >= cfg.ShockAt {
					p *= cfg.ShockFactor
				}
				bought := rng.Float64() < p
				qty, paid := 0.0, 0.0
				if bought {
					qty, paid = 1, rec.Price
				}
				outSeq++
				drifting, err := client.ReportOutcome(
					fmt.Sprintf("sim-%08d", outSeq), rec.RuleID, rec.ModelVersion, bought, qty, paid)
				if err == nil {
					res.Outcomes++
					if bought {
						res.Conversions++
					}
					if drifting && !latched && cfg.OnDrift != nil {
						latched = true
						res.DriftAlarms++
						cfg.OnDrift()
					}
					if cfg.CheckEvery > 0 && cfg.OnCheck != nil && res.Outcomes%int64(cfg.CheckEvery) == 0 {
						res.Checks++
						cfg.OnCheck()
					}
				}
			}
			if e.stepsLeft > 1 {
				next := e.at + rng.ExpFloat64()*cfg.MeanThink
				if next <= cfg.Duration {
					events.push(&event{at: next, kind: evStep, user: e.user, stepsLeft: e.stepsLeft - 1}, &seq)
				}
			}
		}
	}

	res.RecommendErrors = client.Ledger.RecommendErrors.Load()
	res.OutcomeErrors = client.Ledger.OutcomeErrors.Load()
	res.Dropped = client.Ledger.Dropped()
	stats, err := client.FeedbackStats(1000000)
	if err != nil {
		return res, err
	}
	res.FinalStats = stats
	return res, nil
}
