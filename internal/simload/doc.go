// Package simload is a closed-loop traffic simulator for the serving
// stack: a sessionized synthetic user population driven against a live
// profitserve (single node or a coordinator fleet) over real HTTP.
//
// What makes it closed-loop is the buy model: every simulated user
// belongs to one of the datagen generator's ⟨target, price⟩ market-
// segment cells (datagen.GroundTruth), shops baskets drawn from that
// cell's transactions with Zipf-skewed popularity, and accepts or
// rejects each recommendation with a probability derived from the same
// coupling tables the dataset was generated from — Correlation for the
// item match, the bump-weight tail for price acceptance. Served
// recommendations therefore causally shift realized profit, which
// drives the feedback collector's drift detector, which drives windowed
// re-mining, staging, and promotion: the whole loop the paper's
// actions are supposed to survive.
//
// Run is a virtual clock: a single-threaded event loop advances a
// simulated clock through diurnal + burst session arrivals and
// think-time-separated session steps, issuing real HTTP requests
// sequentially. All randomness flows through one seeded source in event
// order, and drift alarms are consumed synchronously from the POST
// /outcome receipts — so the same seed replays the same schedule
// exactly and the final /feedback/stats is bit-identical across runs.
// Every failed request is counted in the client's Ledger. BenchmarkSoak
// gates both serving topologies on this, and TestSoakLiveServer drives
// it against an out-of-process server.
//
// Wall-clock open-loop load (latency under a target rate) is the
// perfbench module's job, not this package's.
package simload
