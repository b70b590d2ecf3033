package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"profitmining/internal/simload"
)

// Operation kinds of the open-loop schedule. Every answered recommend is
// followed by one /outcome from the same client.
const (
	opRecommend uint8 = iota
	opBatch
)

const (
	// zipfS skews which of its home cell's baskets a customer brings:
	// simload's default, which profitbench -soakbench runs with.
	zipfS     = 1.2
	lateAfter = time.Millisecond

	// Span IDs of client requests and coordinator hops are derived from
	// the request number carried in each body, so a handler can name its
	// parent without any header surviving the coordinator.
	clientSpanBase = uint64(1) << 40
	coordSpanBase  = uint64(2) << 40
	// outcomeIDBase separates the request numbers of outcomes from those
	// of the recommends they report on.
	outcomeIDBase = int64(1) << 30
)

// event is one scheduled request: when it is due, relative to the
// phase start, and which input it carries.
type event struct {
	Due   time.Duration
	Op    uint8
	Input int32   // transaction whose basket a recommend carries, or batch payload index
	Cell  int32   // the customer's home cell, for the buy decision
	U     float64 // the customer buys if U is below the buy model's probability for what is recommended
}

// makeSchedule generates an open-loop schedule from seed alone: arrivals
// at a constant rate per second for length, from a seeded phase, a
// batchShare of them 64-basket batches. Each recommend comes from a
// customer drawn from pop, who brings one of their home cell's baskets,
// Zipf-skewed as simload.RunOpenLoop draws them, and carries the uniform
// draw that decides, against simload's buy model, whether they take the
// recommendation. The server only ever sees what this returns. Arrivals
// are evenly spaced, as in wrk2, rather than Poisson, so a burst of
// arrivals cannot queue in the one connection that sends them.
func makeSchedule(seed int64, rate float64, length time.Duration, batchShare float64, pop *simload.Population, batches int) []event {
	rng := rand.New(rand.NewSource(seed))
	zipfs := make([]*rand.Zipf, len(pop.CellTxns))
	var out []event
	for t := rng.Float64() / rate; t < length.Seconds(); t += 1 / rate {
		ev := event{Due: time.Duration(t * float64(time.Second)), U: rng.Float64()}
		if rng.Float64() < batchShare {
			ev.Op, ev.Input = opBatch, int32(rng.Intn(batches))
		} else {
			cell := pop.HomeCell[rng.Intn(len(pop.HomeCell))]
			pool := pop.CellTxns[cell]
			txn := pool[0]
			if len(pool) > 1 {
				if zipfs[cell] == nil {
					zipfs[cell] = rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
				}
				txn = pool[zipfs[cell].Uint64()]
			}
			ev.Input, ev.Cell = int32(txn), int32(cell)
		}
		out = append(out, ev)
	}
	return out
}

// generators is how many clients serve's closed loop runs and how many
// replicas the fleet has: nproc, capped at two so the load has the same
// shape on a larger host.
func generators() int { return min(runtime.NumCPU(), 2) }

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// target is the server under load and the inputs it is sent.
type target struct {
	base     string
	in       *inputs
	tr       *tracer
	seed     int64
	sampleIx int // keep every sampleIx-th recommend response for checks
}

// sample is one recommend response kept for the output check.
type sample struct {
	Input   int32
	Body    []byte
	Version int
}

// loadResult aggregates one phase; latencies are in milliseconds from
// the time each request was due, lag in microseconds.
type loadResult struct {
	recommend, batch, outcome []float64
	recDue                    []time.Duration // when each recommend was due, from the phase start
	lagUS                     []float64
	late                      int
	attempted, failed         int64
	acked                     []string          // requestIDs of acked outcomes
	firstSeen                 map[int]time.Time // first client-side arrival of each model version
	samples                   []sample          // kept recommend responses
	firstErr                  string            // first failure, for the log
}

func (r *loadResult) merge(o *loadResult) {
	r.recommend = append(r.recommend, o.recommend...)
	r.recDue = append(r.recDue, o.recDue...)
	r.batch = append(r.batch, o.batch...)
	r.outcome = append(r.outcome, o.outcome...)
	r.lagUS = append(r.lagUS, o.lagUS...)
	r.late += o.late
	r.attempted += o.attempted
	r.failed += o.failed
	r.acked = append(r.acked, o.acked...)
	r.samples = append(r.samples, o.samples...)
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	if r.firstSeen == nil {
		r.firstSeen = make(map[int]time.Time)
	}
	for v, t := range o.firstSeen {
		if old, ok := r.firstSeen[v]; !ok || t.Before(old) {
			r.firstSeen[v] = t
		}
	}
}

// steadyPhase is how much of a measured phase runs before the workload
// starts changing the model (refresh cycles, rollouts, shipping): the
// end-to-end latencies come from this steady first half, the latencies
// while the model changes go to the per-layer metrics.
func steadyPhase(measure time.Duration) time.Duration { return measure / 2 }

// recommends returns the latencies of the recommends due in [from, to)
// and answered before to, with when each was due.
func (r *loadResult) recommends(from, to time.Duration) ([]float64, []time.Duration) {
	var lat []float64
	var due []time.Duration
	for i, l := range r.recommend {
		d := r.recDue[i]
		if d >= from && d+time.Duration(l*float64(time.Millisecond)) < to {
			lat = append(lat, l)
			due = append(due, d)
		}
	}
	return lat, due
}

// tailWindow is the window the end-to-end p95 is taken over.
const tailWindow = time.Second

// setRecommendLatency reports the recommends due in [from, to): the
// median over all of them, end to end, and as an ungated diagnostic the
// median over one-second windows of each window's p95. A host stall
// confined to a few windows moves the pooled p95 by whatever share of
// the requests it catches; it moves the windowed one only if it recurs
// in most windows.
func setRecommendLatency(rep *report, name string, lr *loadResult, from, to time.Duration) {
	lat, due := lr.recommends(from, to)
	rep.layer["client.recommend_p95_ms"] = windowedPercentile(lat, due, tailWindow, 0.95)
	rep.e2e["recommend_p50_ms"] = percentile(lat, 0.50)
	logf("%s: %d recommends, p50 %.3fms, p95 %.3fms (pooled p95 %.3fms, p99 %.3fms)", name, len(lat),
		rep.e2e["recommend_p50_ms"], rep.layer["client.recommend_p95_ms"], percentile(lat, 0.95), percentile(lat, 0.99))
}

func (r *loadResult) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// caller is one generator goroutine's connection and scratch buffers.
type caller struct {
	c    *http.Client
	body bytes.Buffer
	resp bytes.Buffer
}

// post sends one JSON body and returns the status, the response body
// (valid until the next call) and the X-Model-Version header.
func (cl *caller) post(url string) (int, []byte, int, error) {
	resp, err := cl.c.Post(url, "application/json", bytes.NewReader(cl.body.Bytes()))
	if err != nil {
		return 0, nil, 0, err
	}
	cl.resp.Reset()
	_, err = cl.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	// A missing or malformed header reads as version 0.
	v, _ := strconv.Atoi(resp.Header.Get("X-Model-Version"))
	return resp.StatusCode, cl.resp.Bytes(), v, nil
}

// setBody writes {"id":n, followed by rest (a body without its "{").
func (cl *caller) setBody(n int64, rest []byte) {
	cl.body.Reset()
	cl.body.WriteString(`{"id":`)
	cl.body.WriteString(strconv.FormatInt(n, 10))
	cl.body.WriteByte(',')
	cl.body.Write(rest)
}

// outcomeJob is an /outcome owed for an answered recommend.
type outcomeJob struct {
	n       int64  // the recommend's request number
	body    []byte // the recommend's response
	version int
	cell    int32
	u       float64
	due     time.Time // when the recommend was answered
}

// runOpenLoop plays sched against tgt from start with two generator
// goroutines, each on its own keep-alive connection. Request numbers are
// base+index. One sends the scheduled recommends and batches, each when
// it is due; the other reports one /outcome per answered recommend, due
// the moment the recommend was answered. Kept apart, a slow WAL fsync
// delays the outcomes queued behind it, as it should, but not the next
// scheduled recommend.
func runOpenLoop(tgt *target, sched []event, base int64, start time.Time) *loadResult {
	rec := &loadResult{firstSeen: make(map[int]time.Time)}
	out := &loadResult{}
	jobs := make(chan outcomeJob, len(sched)) // at most one per scheduled event: sends never block
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(jobs)
		// A locked thread can block in nanosleep, which wakes within the
		// kernel's timer slack; the runtime's own timers can round a
		// sub-millisecond sleep up to the next millisecond.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cl := &caller{c: newClient()}
		defer cl.c.CloseIdleConnections()
		for i, ev := range sched {
			due := start.Add(ev.Due)
			sleepUntil(due)
			sent := time.Now()
			lag := sent.Sub(due)
			rec.lagUS = append(rec.lagUS, float64(lag)/float64(time.Microsecond))
			if lag > lateAfter {
				rec.late++
			}
			if job, ok := tgt.play(cl, rec, ev, base+int64(i), due, sent); ok {
				jobs <- job
			}
		}
	}()
	go func() {
		defer wg.Done()
		cl := &caller{c: newClient()}
		defer cl.c.CloseIdleConnections()
		for job := range jobs {
			tgt.report(cl, out, job)
		}
	}()
	wg.Wait()
	rec.merge(out)
	return rec
}

// play sends one scheduled recommend or batch. For an answered
// recommend it returns the outcome to report.
func (tgt *target) play(cl *caller, res *loadResult, ev event, n int64, due, sent time.Time) (outcomeJob, bool) {
	res.attempted++
	if ev.Op == opBatch {
		cl.setBody(n, tgt.in.batches[ev.Input])
		status, _, _, err := cl.post(tgt.base + "/recommend/batch")
		end := time.Now()
		tgt.tr.add(clientSpanBase+uint64(n), 0, n, "loadgen./recommend/batch", sent, end)
		if err != nil || status != http.StatusOK {
			res.fail("batch: status %d err %v", status, err)
			return outcomeJob{}, false
		}
		res.batch = append(res.batch, ms(end.Sub(due)))
		return outcomeJob{}, false
	}
	cl.setBody(n, tgt.in.recs[ev.Input])
	status, body, version, err := cl.post(tgt.base + "/recommend")
	end := time.Now()
	tgt.tr.add(clientSpanBase+uint64(n), 0, n, "loadgen./recommend", sent, end)
	if err != nil || status != http.StatusOK {
		res.fail("recommend: status %d err %v", status, err)
		return outcomeJob{}, false
	}
	res.recommend = append(res.recommend, ms(end.Sub(due)))
	res.recDue = append(res.recDue, ev.Due)
	if _, ok := res.firstSeen[version]; !ok {
		res.firstSeen[version] = end
	}
	body = append([]byte(nil), body...)
	if tgt.sampleIx > 0 && n%int64(tgt.sampleIx) == 0 {
		res.samples = append(res.samples, sample{Input: ev.Input, Body: body, Version: version})
	}
	return outcomeJob{n: n, body: body, version: version, cell: ev.Cell, u: ev.U, due: end}, true
}

// report sends the /outcome for one answered recommend: what the
// customer did with the first recommendation, decided by simload's buy
// model from the customer's cell and the event's draw, as
// simload.RunOpenLoop decides it.
func (tgt *target) report(cl *caller, res *loadResult, job outcomeJob) {
	res.attempted++
	var env struct {
		Recommendations []simload.Recommendation `json:"recommendations"`
	}
	if err := json.Unmarshal(job.body, &env); err != nil || len(env.Recommendations) == 0 {
		res.fail("recommend: no recommendation in %q (%v)", job.body, err)
		return
	}
	r := env.Recommendations[0]
	bought := job.u < tgt.in.buy.Probability(int(job.cell), r.Item, r.PromoIx)
	qty, paid := 0.0, 0.0
	if bought {
		qty, paid = 1, r.Price
	}
	on := outcomeIDBase + job.n
	reqID := "o" + strconv.FormatInt(tgt.seed, 10) + "-" + strconv.FormatInt(job.n, 10)
	cl.body.Reset()
	fmt.Fprintf(&cl.body, `{"id":%d,"requestID":%q,"ruleID":%q,"modelVersion":%d,"bought":%t,"qty":%g,"paidPrice":%g}`,
		on, reqID, r.RuleID, job.version, bought, qty, paid)
	sent := time.Now()
	status, body, _, err := cl.post(tgt.base + "/outcome")
	end := time.Now()
	tgt.tr.add(clientSpanBase+uint64(on), 0, on, "loadgen./outcome", sent, end)
	if err != nil || status != http.StatusOK {
		res.fail("outcome: status %d err %v body %q", status, err, body)
		return
	}
	res.outcome = append(res.outcome, ms(end.Sub(job.due)))
	res.acked = append(res.acked, reqID)
}

// closedResult is one closed-loop phase.
type closedResult struct {
	completed, failed int64
	elapsed           time.Duration
	latency           []float64 // ms
}

// runClosedLoop has generators() clients each send /recommend back to
// back for length; inputs cycle through the baskets of sched's
// recommends. Request numbers start at base.
func runClosedLoop(tgt *target, sched []event, base int64, length time.Duration) *closedResult {
	workers := generators()
	var order []int32
	for _, ev := range sched {
		if ev.Op == opRecommend {
			order = append(order, ev.Input)
		}
	}
	parts := make([]closedResult, workers)
	var next atomic.Int64
	next.Store(base)
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &parts[w]
			cl := &caller{c: newClient()}
			defer cl.c.CloseIdleConnections()
			for i := w; time.Now().Before(deadline); i += workers {
				n := next.Add(1) - 1
				cl.setBody(n, tgt.in.recs[order[i%len(order)]])
				sent := time.Now()
				status, _, _, err := cl.post(tgt.base + "/recommend")
				end := time.Now()
				tgt.tr.add(clientSpanBase+uint64(n), 0, n, "loadgen./recommend", sent, end)
				if err != nil || status != http.StatusOK {
					res.failed++
					continue
				}
				res.completed++
				res.latency = append(res.latency, ms(end.Sub(sent)))
			}
		}(w)
	}
	wg.Wait()
	out := &closedResult{elapsed: time.Since(start)}
	for i := range parts {
		out.completed += parts[i].completed
		out.failed += parts[i].failed
		out.latency = append(out.latency, parts[i].latency...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Until(t))
			return
		}
	}
}
