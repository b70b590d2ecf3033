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
// Two execution modes:
//
//   - Run: virtual-clock mode. A single-threaded event loop advances a
//     simulated clock through diurnal + burst session arrivals and
//     think-time-separated session steps, issuing real HTTP requests
//     sequentially. All randomness flows through one seeded source in
//     event order, and drift alarms are consumed synchronously from the
//     POST /outcome receipts — so the same seed replays the same
//     schedule exactly and the final /feedback/stats is bit-identical
//     across runs. This is the mode the soak gate's determinism check
//     uses.
//
//   - RunOpenLoop: wall-clock mode. A pacer dispatches a pre-generated
//     (and therefore still seed-deterministic) request schedule at a
//     target QPS to a worker pool; per-endpoint latency lands in
//     HDR-style log-bucketed histograms and every failed request is
//     accounted in the dropped ledger. Timing-dependent, by design —
//     this mode measures the server, not the schedule.
package simload
