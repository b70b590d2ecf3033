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
//     routes /recommend, /recommend/batch and /outcome (rotation over
//     the usable replicas, which all serve the same image and so give
//     the same answer; fan-out with per-basket error isolation;
//     failover on replica failure; and a hedged second attempt on a
//     slow replica for the idempotent recommend routes only — an
//     outcome is recorded wherever it lands, so it is never sent
//     twice), merges /metrics and /version across the fleet, and runs
//     the single cluster-wide Page-Hinkley drift detector over the
//     aggregated outcome stream — replaying shipped segments in a
//     deterministic total order (node, segment sequence, then record
//     index) so a drift alarm fires exactly once per model episode and
//     triggers exactly one delta refresh, whose promoted model then
//     fans back out to every replica through the model-sync channel.
package cluster

import (
	"io"
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

// Body bounds of the cluster protocol. readSized enforces them.
const (
	// maxShippedSegment caps a POST /cluster/segment body. Segments
	// rotate at 64 MiB by default; double that bounds a misbehaving
	// shipper.
	maxShippedSegment = 128 << 20

	// maxModelImage caps a pulled model image. The largest image the
	// repo's benchmarks build is 15.6 MiB; a declared length past this
	// bound is refused before anything is allocated for it.
	maxModelImage = 1 << 30

	// maxReplicaAnswer caps one replica answer the coordinator reads.
	// The largest legitimate answer, a batch of maxBatchBaskets baskets
	// with up to one rule blob per target item each (k is not capped),
	// has no tighter bound; this one refuses an absurd declared length.
	maxReplicaAnswer = 1 << 30

	// peerPresize is the most readSized allocates ahead of the bytes
	// of a body from a sender the reader does not trust: a client of
	// the coordinator, or a replica answering it. Only the replica's
	// model pull, from the coordinator it follows, is sized in full
	// from the declared length.
	peerPresize = 64 << 10
)

// readSized reads a body of at most limit bytes whose sender declared
// its length (-1 when it did not, as for a chunked body). A declared
// length past the bound fails before anything is read or allocated,
// and an undeclared body fails once it passes the bound, both with the
// *http.MaxBytesError http.MaxBytesReader returns. A short body is an
// error.
//
// presize is the most the read allocates before the body's bytes
// arrive. A declared length within it is read into one slice of
// exactly that size, where io.ReadAll's growing appends allocate
// several times a large body. Past it, and for an undeclared body, the
// slice doubles (never past the declared length) only as bytes fill
// it, so a sender that declares a large body and sends none makes the
// reader hold presize, not what it declared.
func readSized(body io.Reader, declared, limit, presize int64) ([]byte, error) {
	if declared > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	want, start := declared, min(declared, presize)
	if declared < 0 {
		// One byte past the bound tells an oversized body.
		want, start = limit+1, 512
	}
	data := make([]byte, 0, start)
	for int64(len(data)) < want {
		if len(data) == cap(data) {
			grown := make([]byte, len(data), min(max(2*int64(cap(data)), 512), want))
			copy(grown, data)
			data = grown
		}
		n, err := body.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	switch {
	case int64(len(data)) < declared:
		return nil, io.ErrUnexpectedEOF
	case int64(len(data)) > limit:
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return data, nil
}

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
