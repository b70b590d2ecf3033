package simload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Recommendation is the slice of the serve wire format the simulator
// acts on: what to show, at which price level, and the rule to report
// the outcome against.
type Recommendation struct {
	Item    string  `json:"item"`
	PromoIx int     `json:"promoIx"`
	Price   float64 `json:"price"`
	Cost    float64 `json:"cost"`
	ProfRe  float64 `json:"profRe"`
	RuleID  string  `json:"ruleID"`

	// ModelVersion is the envelope's serving version, not a wire field
	// of the recommendation object itself.
	ModelVersion int `json:"-"`
}

// Ledger counts every request the simulator failed to land. The soak
// gates require Dropped to be zero: an acked recommendation
// whose outcome never reached the collector is exactly the data loss
// the feedback pipeline exists to prevent.
type Ledger struct {
	RecommendErrors atomic.Int64 // POST /recommend that did not answer 200
	OutcomeErrors   atomic.Int64 // POST /outcome that did not answer 200
}

// Dropped returns the total failed requests.
func (l *Ledger) Dropped() int64 {
	return l.RecommendErrors.Load() + l.OutcomeErrors.Load()
}

// Client issues the simulator's HTTP requests against one base URL
// (single node or coordinator — the wire surface is identical) and
// accounts failures per endpoint. Safe for concurrent use.
type Client struct {
	Base string
	HC   *http.Client

	Ledger Ledger
}

// NewClient wraps base with the default HTTP client.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{Base: base, HC: hc}
}

// Recommend posts a pre-marshaled basket and returns the first
// recommendation, or nil when the model has none for this basket (an
// answered request with an empty list is not an error). Failures are
// counted in the ledger and returned.
func (c *Client) Recommend(payload []byte) (*Recommendation, error) {
	resp, err := c.HC.Post(c.Base+"/recommend", "application/json", bytes.NewReader(payload))
	if err != nil {
		c.Ledger.RecommendErrors.Add(1)
		return nil, fmt.Errorf("simload: POST /recommend: %w", err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		c.Ledger.RecommendErrors.Add(1)
		return nil, fmt.Errorf("simload: read /recommend response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		c.Ledger.RecommendErrors.Add(1)
		return nil, fmt.Errorf("simload: POST /recommend: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var env struct {
		Recommendations []Recommendation `json:"recommendations"`
		ModelVersion    int              `json:"modelVersion"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		c.Ledger.RecommendErrors.Add(1)
		return nil, fmt.Errorf("simload: decode /recommend response: %w", err)
	}
	if len(env.Recommendations) == 0 {
		return nil, nil
	}
	rec := env.Recommendations[0]
	rec.ModelVersion = env.ModelVersion
	if rec.ModelVersion == 0 {
		// The single /recommend envelope always carries modelVersion; the
		// header is the fallback for any proxy that rewrites the body.
		if v, err := strconv.Atoi(resp.Header.Get("X-Model-Version")); err == nil {
			rec.ModelVersion = v
		}
	}
	return &rec, nil
}

// ReportOutcome posts what the simulated customer did with a
// recommendation and returns the collector's drift verdict from the
// receipt — the synchronous drift signal virtual-clock mode relies on.
func (c *Client) ReportOutcome(requestID, ruleID string, modelVersion int, bought bool, qty, paidPrice float64) (drifting bool, err error) {
	payload, err := json.Marshal(map[string]any{
		"requestID":    requestID,
		"ruleID":       ruleID,
		"modelVersion": modelVersion,
		"bought":       bought,
		"qty":          qty,
		"paidPrice":    paidPrice,
	})
	if err != nil {
		return false, err
	}
	resp, err := c.HC.Post(c.Base+"/outcome", "application/json", bytes.NewReader(payload))
	if err != nil {
		c.Ledger.OutcomeErrors.Add(1)
		return false, fmt.Errorf("simload: POST /outcome: %w", err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	if err != nil {
		c.Ledger.OutcomeErrors.Add(1)
		return false, fmt.Errorf("simload: read /outcome response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		c.Ledger.OutcomeErrors.Add(1)
		return false, fmt.Errorf("simload: POST /outcome: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var receipt struct {
		Seq      int64 `json:"seq"`
		Drifting bool  `json:"drifting"`
	}
	if err := json.Unmarshal(body, &receipt); err != nil {
		return false, fmt.Errorf("simload: decode /outcome receipt: %w", err)
	}
	return receipt.Drifting, nil
}

// FeedbackStats fetches the raw /feedback/stats bytes with the given
// per-rule limit — raw, because the determinism gate compares bytes,
// not parsed values.
func (c *Client) FeedbackStats(limit int) ([]byte, error) {
	resp, err := c.HC.Get(c.Base + "/feedback/stats?limit=" + strconv.Itoa(limit))
	if err != nil {
		return nil, fmt.Errorf("simload: GET /feedback/stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("simload: GET /feedback/stats: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
