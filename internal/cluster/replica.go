package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"profitmining/internal/feedback"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// ReplicaConfig wires a replica's cluster-side loops. The serve stack
// itself is unchanged — a replica is the ordinary single-node server
// plus these two background clients.
type ReplicaConfig struct {
	// NodeID is the replica's stable identity (typically its advertised
	// address). It scopes shipped segments in the coordinator's spool,
	// so it must be unique per replica and survive restarts.
	NodeID string

	// Coordinator is the coordinator's base URL.
	Coordinator string

	// Collector is the local feedback collector whose WAL is shipped.
	// Nil disables shipping (a scoring-only replica).
	Collector *feedback.Collector

	// WALDir is the collector's on-disk WAL directory. "" disables
	// shipping (an in-memory collector has no segments to ship).
	WALDir string

	// Registry receives models pulled from the coordinator. Nil
	// disables model sync.
	Registry *registry.Registry

	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
}

// Replica timing: the seal-and-ship cadence, the model-sync poll
// cadence, and the bound on each coordinator call (generous because a
// model pull moves a whole image).
const (
	shipEvery   = 2 * time.Second
	syncEvery   = 2 * time.Second
	callTimeout = 10 * time.Second
)

// Replica runs the two cluster loops of one fleet member: the shipper,
// which seals the local feedback WAL on a cadence and streams every
// sealed segment (content-addressed, CRC-framed bytes verbatim) to the
// coordinator; and the model-sync client, which pulls the cluster
// model by content hash so the whole fleet provably serves identical
// bytes.
type Replica struct {
	cfg    ReplicaConfig
	client *http.Client
	logf   func(string, ...any)

	mu         sync.Mutex
	shipped    map[string]bool // sealed segment path → acked by coordinator
	pauseUntil time.Time       // shipping backoff from a coordinator 503
}

// NewReplica validates the wiring and returns a Replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: replica needs a node ID")
	}
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: replica needs a coordinator URL")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Replica{
		cfg:     cfg,
		client:  &http.Client{Timeout: callTimeout},
		logf:    logf,
		shipped: make(map[string]bool),
	}, nil
}

// Run drives both loops until ctx is done, then makes one final
// seal-and-ship pass so a graceful shutdown leaves no sealed outcome
// behind. An initial model sync runs immediately, so a freshly joined
// replica starts serving as soon as the coordinator has a model.
func (r *Replica) Run(ctx context.Context) {
	if _, err := r.SyncModel(ctx); err != nil {
		r.logf("cluster: initial model sync: %v", err)
	}
	ship := time.NewTicker(shipEvery)
	defer ship.Stop()
	syncT := time.NewTicker(syncEvery)
	defer syncT.Stop()
	for {
		select {
		case <-ctx.Done():
			// Final drain pass on a fresh context: ctx is already dead,
			// but the sealed tail of the WAL should still reach the
			// coordinator if it is reachable.
			flushCtx, cancel := context.WithTimeout(context.Background(), callTimeout)
			if _, err := r.ShipNow(flushCtx); err != nil {
				r.logf("cluster: final segment ship: %v", err)
			}
			cancel()
			return
		case <-ship.C:
			if _, err := r.ShipNow(ctx); err != nil {
				r.logf("cluster: shipping segments: %v", err)
			}
		case <-syncT.C:
			//lint:allow atomiczone -- background sync loop, not a request handler: each tick deliberately takes a fresh registry snapshot
			if _, err := r.SyncModel(ctx); err != nil {
				r.logf("cluster: model sync: %v", err)
			}
		}
	}
}

// ShipNow seals the live WAL segment and ships every sealed segment
// the coordinator has not acked yet, in sequence order. Re-shipping
// after a restart is safe: the coordinator's spool is idempotent by
// (node, segment hash). Returns how many segments were acked this
// pass.
//
// Every frame that reached the local WAL either reaches the
// coordinator or stays in a sealed file that the next pass (or the
// next process) retries — shipping never deletes or rewrites a
// segment, which is what makes the pipeline at-least-once with
// idempotent admission, i.e. exactly-once accounting.
func (r *Replica) ShipNow(ctx context.Context) (int, error) {
	if r.cfg.Collector == nil || r.cfg.WALDir == "" {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if time.Now().Before(r.pauseUntil) {
		return 0, nil
	}
	if err := r.cfg.Collector.Rotate(); err != nil {
		return 0, fmt.Errorf("cluster: sealing live segment: %w", err)
	}
	paths, err := feedback.SealedSegmentPaths(r.cfg.WALDir)
	if err != nil {
		return 0, err
	}
	acked := 0
	for _, path := range paths {
		if r.shipped[path] {
			continue
		}
		seq, err := feedback.SegmentSeq(path)
		if err != nil {
			return acked, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return acked, fmt.Errorf("cluster: reading sealed segment: %w", err)
		}
		if err := r.shipSegment(ctx, seq, data); err != nil {
			return acked, err
		}
		r.shipped[path] = true
		acked++
	}
	return acked, nil
}

// shipSegment POSTs one sealed segment. Callers hold r.mu.
func (r *Replica) shipSegment(ctx context.Context, seq int, data []byte) error {
	hash := registry.HashBytes(data)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.Coordinator+"/cluster/segment", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(segmentHashHeader, hash)
	req.Header.Set(nodeIDHeader, r.cfg.NodeID)
	req.Header.Set(segmentSeqHeader, strconv.Itoa(seq))
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: shipping segment %.8s: %w", hash, err)
	}
	defer resp.Body.Close()
	//lint:allow droppederr -- best-effort diagnostic text; the status code below decides the outcome either way
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
		r.logf("cluster: shipped segment %.8s (%d bytes)", hash, len(data))
		return nil
	case http.StatusServiceUnavailable:
		r.pauseUntil = time.Now().Add(retryAfter(resp, shipEvery))
		return fmt.Errorf("cluster: coordinator unavailable (backing off): %s", bytes.TrimSpace(body))
	default:
		return fmt.Errorf("cluster: coordinator rejected segment %.8s: %d %s", hash, resp.StatusCode, bytes.TrimSpace(body))
	}
}

// SyncModel pulls the cluster model if its content hash differs from
// what this replica already has (active or staged) and submits it to
// the local registry, where it passes the usual validation gate before
// promotion. Conditional by hash: the steady-state poll is a bodyless
// 304. Returns whether a new model was submitted.
func (r *Replica) SyncModel(ctx context.Context) (bool, error) {
	if r.cfg.Registry == nil {
		return false, nil
	}
	have := ""
	if snap := r.cfg.Registry.Active(); snap != nil {
		have = snap.Hash
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.Coordinator+"/cluster/model", nil)
	if err != nil {
		return false, err
	}
	if have != "" {
		req.Header.Set("If-None-Match", have)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("cluster: pulling model: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return false, nil
	case http.StatusServiceUnavailable:
		// The coordinator has no model yet — normal during bootstrap;
		// the next poll retries.
		io.Copy(io.Discard, resp.Body)
		return false, nil
	case http.StatusOK:
	default:
		return false, fmt.Errorf("cluster: model pull answered %d", resp.StatusCode)
	}
	// The coordinator this replica follows is trusted to declare the
	// image's length: the body is read into one slice of that size.
	data, err := readSized(resp.Body, resp.ContentLength, maxModelImage, maxModelImage)
	if err != nil {
		return false, fmt.Errorf("cluster: reading model body: %w", err)
	}
	hash := modelio.ContentHash(data)
	if hash == "" {
		return false, fmt.Errorf("cluster: pulled model is not a sealed image")
	}
	if claimed := resp.Header.Get(modelHashHeader); claimed != "" && claimed != hash {
		return false, fmt.Errorf("cluster: model hash mismatch: coordinator claims %.8s, body hashes to %.8s", claimed, hash)
	}
	if hash == have {
		return false, nil
	}
	if staged := r.cfg.Registry.Staged(); staged != nil && staged.Hash == hash {
		// Already pulled and awaiting shadow promotion; don't re-stage.
		return false, nil
	}
	// The image opens zero-copy, verified against the same checksum
	// the hash above came from.
	cat, rec, err := modelio.LoadBytes(data)
	if err != nil {
		return false, fmt.Errorf("cluster: decoding pulled model %.8s: %w", hash, err)
	}
	snap, outcome, err := r.cfg.Registry.Submit(cat, rec, "cluster sync from "+r.cfg.Coordinator, "")
	if err != nil {
		return false, fmt.Errorf("cluster: submitting pulled model %.8s: %w", hash, err)
	}
	r.logf("cluster: model %.8s %s (v%d)", hash, outcome, snap.Version)
	return true, nil
}
