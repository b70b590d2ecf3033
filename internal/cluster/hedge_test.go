package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFailoverCounters pins the /metrics split between hedges (slow
// primary, timer-raced second attempt), failovers (failed attempt,
// immediate second attempt), and hedgeWins (a non-primary attempt
// produced the winning answer). The dead replica leads the fleet and
// is still believed healthy, so the first request's rotation leads
// with it: that request must fail over to the live replica, succeed,
// and be counted as a hedge win.
func TestFailoverCounters(t *testing.T) {
	coord, cts, stacks := newFleet(t, 1, CoordinatorConfig{})
	live := stacks[0]

	dead := httptest.NewServer(http.NewServeMux())
	dead.Close()
	coord.SetReplicas([]string{dead.URL, live.ts.URL})

	for i := 0; i < 4; i++ {
		resp, out := postJSON(t, cts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0,"qty":1}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend with one dead replica: %d %v", resp.StatusCode, out)
		}
	}

	failovers := coord.failovers.Load()
	hedgeWins := coord.hedgeWins.Load()
	if failovers == 0 {
		t.Fatal("no failovers counted although a dead replica was in the rotation")
	}
	if hedgeWins == 0 {
		t.Fatal("no hedge wins counted although failed-over requests succeeded")
	}
	if hedgeWins > failovers+coord.hedges.Load() {
		t.Fatalf("hedgeWins %d exceeds extra attempts launched (%d failovers + %d hedges)",
			hedgeWins, failovers, coord.hedges.Load())
	}

	// The same counters must surface on /metrics.
	_, m := getJSON(t, cts.URL+"/metrics")
	co := m["coordinator"].(map[string]any)
	if got := int64(co["failovers"].(float64)); got != failovers {
		t.Fatalf("/metrics failovers = %d, counter = %d", got, failovers)
	}
	if got := int64(co["hedgeWins"].(float64)); got != hedgeWins {
		t.Fatalf("/metrics hedgeWins = %d, counter = %d", got, hedgeWins)
	}
	if _, ok := co["hedges"].(float64); !ok {
		t.Fatal("/metrics lost the hedges counter")
	}
}

// TestOutcomeNeverHedged pins exactly-once outcome routing under slow
// replicas: an outcome is recorded wherever it lands, so the
// coordinator must wait on a slow replica rather than race the report
// to a second one. Both replicas answer /outcome only after more than
// the hedge window; every report must reach exactly one replica, and
// the fleet must aggregate exactly the acked count.
func TestOutcomeNeverHedged(t *testing.T) {
	coord, cts, stacks := newFleet(t, 2, CoordinatorConfig{})

	var calls atomic.Int64
	var inFlight sync.WaitGroup
	slowURLs := make([]string, len(stacks))
	for i, st := range stacks {
		h := st.ts.Config.Handler
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/outcome" {
				inFlight.Add(1)
				defer inFlight.Done()
				calls.Add(1)
				time.Sleep(hedgeAfter + 150*time.Millisecond)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(slow.Close)
		slowURLs[i] = slow.URL
	}
	coord.SetReplicas(slowURLs)
	coord.CheckHealth(context.Background())

	resp, body := postJSON(t, cts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0,"qty":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommend: %d %v", resp.StatusCode, body)
	}
	ruleID := body["recommendations"].([]any)[0].(map[string]any)["ruleID"].(string)

	const acked = 3
	for i := 0; i < acked; i++ {
		resp, body := postJSON(t, cts.URL+"/outcome",
			fmt.Sprintf(`{"ruleID":%q,"modelVersion":1,"bought":true,"qty":1}`, ruleID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("outcome %d: %d %v", i, resp.StatusCode, body)
		}
	}
	// A raced duplicate still records after the caller was answered;
	// wait for every replica-side handler before counting.
	inFlight.Wait()
	for i, st := range stacks {
		if _, err := st.rep.ShipNow(context.Background()); err != nil {
			t.Fatalf("replica %d ship: %v", i, err)
		}
	}
	if got := coord.hedges.Load(); got != 0 {
		t.Errorf("coordinator hedged %d outcome reports", got)
	}
	if got := calls.Load(); got != acked {
		t.Errorf("replicas received %d outcome reports for %d acked", got, acked)
	}
	if got := coord.Spool().Outcomes(); got != acked {
		t.Fatalf("fleet aggregated %d outcomes for %d acked", got, acked)
	}
}
