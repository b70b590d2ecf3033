// Package cluster is the distributed serving tier: it scales the
// single-process serve stack to a replica fleet behind a thin
// coordinator without giving up the determinism contract the rest of
// the repo defends — cluster-wide /feedback/stats replays bit-identical
// from shipped WAL segments, exactly as a single node's stats replay
// from its local log.
//
// The package has two roles:
//
//   - Replica: the existing serve stack plus (a) a shipper that seals
//     the local feedback WAL on a cadence and streams the sealed,
//     CRC-framed segments to the coordinator, content-addressed by
//     segment hash, and (b) a model-sync client that pulls the cluster
//     model by content-hash ID so every replica provably serves
//     identical bytes.
//
//   - Coordinator: a thin HTTP front that health-checks replicas,
//     routes /recommend, /recommend/batch and /outcome (consistent-hash
//     by basket key, fan-out with per-basket error isolation, failover
//     on replica failure, and a hedged second attempt on a slow replica
//     for the idempotent recommend routes only — an outcome is recorded
//     wherever it lands, so it is never sent twice), merges /metrics
//     and /version across the fleet, and runs the single cluster-wide
//     Page-Hinkley drift detector over the aggregated outcome stream —
//     replaying shipped segments in a deterministic total order (node,
//     segment sequence, then record index) so a drift alarm fires
//     exactly once per model episode and triggers exactly one delta
//     refresh, whose promoted model then fans back out to every replica
//     through the model-sync channel.
package cluster

import (
	"net/http"
	"strconv"
	"time"
)

// Wire headers of the cluster protocol.
const (
	// segmentHashHeader carries the sha256 of the shipped segment bytes
	// — the integrity check the coordinator verifies before admitting a
	// segment to the spool.
	segmentHashHeader = "X-Segment-Hash"

	// nodeIDHeader names the shipping replica. Together with the
	// segment sequence it is the spool identity: two replicas can
	// legitimately journal byte-identical segments (same outcomes
	// routed symmetrically), and those are distinct history, not
	// duplicates.
	nodeIDHeader = "X-Node-ID"

	// segmentSeqHeader carries the segment's WAL sequence number — the
	// within-node position in the deterministic cluster replay order.
	segmentSeqHeader = "X-Segment-Seq"

	// modelHashHeader carries the content hash of the distributed model
	// bytes on /cluster/model responses — the distribution key replicas
	// pull by.
	modelHashHeader = "X-Model-Hash"

	// versionHeader mirrors the serve package's model-version response
	// header; the coordinator forwards and merges it.
	versionHeader = "X-Model-Version"
)

// maxShippedSegment caps a POST /cluster/segment body. Segments rotate
// at 64 MiB by default; double that bounds a misbehaving shipper.
const maxShippedSegment = 128 << 20

// retryAfter parses a Retry-After header (seconds form) into a
// duration, with a floor so a malformed or zero header still backs off.
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if resp == nil {
		return fallback
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}
