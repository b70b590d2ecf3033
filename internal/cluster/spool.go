package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"profitmining/internal/feedback"
	"profitmining/internal/registry"
)

// Spool is the coordinator's store of shipped WAL segments and the
// deterministic cluster-wide fold over them.
//
// Every admitted segment is keyed by its spool key — hash(node ID)
// followed by the segment's WAL sequence number — and the cluster fold
// replays records in the total order (node key ascending, sequence
// ascending, record index ascending). That order is a pure function of
// the segment SET, never of arrival interleaving, so two coordinators
// that received the same segments in any order produce bit-identical
// /feedback/stats and trip the cluster drift detector at the identical
// record. Within one node the order is exactly the node's own WAL
// append order, so a one-replica cluster folds to precisely what that
// replica's local replay computes.
//
// The segment content hash shipped in X-Segment-Hash is the integrity
// check, not the identity: two replicas can journal byte-identical
// segments (symmetric traffic produces symmetric logs) and those are
// distinct history, while one node re-shipping the same sequence after
// a restart is the same history and must deduplicate. (node, seq)
// captures both, and a node re-shipping a sequence with *different*
// bytes is rejected as corruption — sealed segments are immutable.
//
// A segment is admitted whole or not at all: every frame and every
// record must decode before anything is stored. The spool then keeps
// only the segment's verified hash and its records decoded, never its
// bytes, so a refold re-applies decoded records and a re-ship is
// checked against the hash.
//
// With a directory configured, admitted segments are also spooled to
// disk (<spoolKey>.walseg) and reloaded on restart, making the
// coordinator's aggregate as durable as the replicas' logs.
type Spool struct {
	mu    sync.Mutex
	dir   string // "" = memory only
	drift feedback.DriftConfig

	segs map[string]spooled // spool key → admitted segment

	// fold is the cached cluster fold and lastKey the greatest spool key
	// it has applied. A new segment whose key sorts after lastKey
	// extends the fold in place; one that sorts earlier forces a
	// rebuild, because the deterministic order says its records
	// happened "before" records already folded.
	fold    *feedback.Fold
	lastKey string
}

// spooled is one admitted segment: the sha256 of its bytes, which a
// re-ship must match, and its records, decoded once at admission.
type spooled struct {
	hash string
	recs []feedback.FoldRecord
}

// NewSpool opens a spool, reloading (and strictly re-validating and
// decoding, as Ingest does) any segments already on disk in dir; a
// spooled segment that does not decode fails the open. An empty dir
// keeps the spool in memory only.
func NewSpool(dir string, drift feedback.DriftConfig) (*Spool, error) {
	s := &Spool{dir: dir, drift: drift, segs: make(map[string]spooled), fold: feedback.NewFold(drift)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating spool dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: listing spool dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".walseg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("cluster: reading spooled segment: %w", err)
		}
		recs, err := decodeSegment(data)
		if err != nil {
			return nil, fmt.Errorf("cluster: spooled segment %s: %w", name, err)
		}
		s.segs[strings.TrimSuffix(name, ".walseg")] = spooled{hash: registry.HashBytes(data), recs: recs}
	}
	s.rebuildLocked()
	return s, nil
}

// SpoolKey computes the deterministic spool identity of one segment of
// one node's WAL. The node component is hashed so arbitrary node IDs
// (URLs, host:port) become fixed-width, filesystem-safe, and
// lexicographically ordered; the sequence is zero-padded hex so string
// order equals numeric order.
func SpoolKey(nodeID string, seq int) string {
	return fmt.Sprintf("%s-%016x", registry.HashBytes([]byte(nodeID)), seq)
}

// Ingest validates and admits one shipped segment. It verifies the
// claimed content hash, which alone settles a re-ship: a segment
// already present with the same hash (a re-ship after a replica
// restart) is a no-op, and the same (node, seq) with a different hash
// is an error, because sealed segments are immutable by contract. A
// new segment must pass every CRC frame and decode every record before
// it is admitted, so a segment that fails any check leaves the spool
// as it was. added reports whether the segment was new.
func (s *Spool) Ingest(nodeID string, seq int, claimedHash string, data []byte) (key string, added bool, err error) {
	if seq < 1 {
		return "", false, fmt.Errorf("cluster: segment sequence %d out of range", seq)
	}
	hash := registry.HashBytes(data)
	if hash != claimedHash {
		return "", false, fmt.Errorf("cluster: segment hash mismatch: claimed %.8s, got %.8s", claimedHash, hash)
	}
	key = SpoolKey(nodeID, seq)
	s.mu.Lock()
	_, shipped := s.segs[key]
	s.mu.Unlock()
	var recs []feedback.FoldRecord
	if !shipped {
		// Only a new segment is decoded. A restarted replica re-ships
		// its whole backlog, and a re-ship is settled by its hash below;
		// admitted segments are never dropped, so one seen here is seen
		// there.
		if recs, err = decodeSegment(data); err != nil {
			return "", false, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.segs[key]; ok {
		if have.hash != hash {
			return "", false, fmt.Errorf("cluster: node %s re-shipped segment %d with different content", nodeID, seq)
		}
		return key, false, nil
	}
	if s.dir != "" {
		// Write-then-rename so a crash mid-write never leaves a torn
		// .walseg to fail the next reload.
		tmp := filepath.Join(s.dir, key+".tmp")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return "", false, fmt.Errorf("cluster: spooling segment: %w", err)
		}
		if err := os.Rename(tmp, filepath.Join(s.dir, key+".walseg")); err != nil {
			return "", false, fmt.Errorf("cluster: spooling segment: %w", err)
		}
	}
	s.segs[key] = spooled{hash: hash, recs: recs}

	// Maintain the cached fold: an append at the end of the total order
	// extends in place; anything else rebuilds from scratch.
	if key > s.lastKey {
		applySegment(s.fold, key, recs)
		s.lastKey = key
	} else {
		s.rebuildLocked()
	}
	return key, true, nil
}

// decodeSegment checks every frame of a segment and decodes every
// record, returning the records only when all of them decode.
func decodeSegment(data []byte) ([]feedback.FoldRecord, error) {
	var recs []feedback.FoldRecord
	err := feedback.ParseSegment(data, func(payload []byte) error {
		r, err := feedback.DecodeRecord(payload)
		if err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// applySegment folds one segment's records as the node its spool key
// names (the hashed node component before the sequence suffix).
func applySegment(f *feedback.Fold, spoolKey string, recs []feedback.FoldRecord) {
	node := spoolKey
	if i := strings.IndexByte(spoolKey, '-'); i > 0 {
		node = spoolKey[:i]
	}
	for _, r := range recs {
		f.ApplyRecord(node, r)
	}
}

// rebuildLocked refolds every spooled segment in total order. Callers
// hold s.mu.
func (s *Spool) rebuildLocked() {
	keys := make([]string, 0, len(s.segs))
	for k := range s.segs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f := feedback.NewFold(s.drift)
	for _, k := range keys {
		applySegment(f, k, s.segs[k].recs)
	}
	s.fold = f
	if n := len(keys); n > 0 {
		s.lastKey = keys[n-1]
	}
}

// Stats snapshots the cluster-wide fold (limit semantics as
// feedback.Collector.Stats). Deterministic: a function of the admitted
// segment set alone.
func (s *Spool) Stats(limit int) feedback.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.Stats(limit)
}

// Drift returns the cluster detector's drifting flag and the model key
// of the current episode.
func (s *Spool) Drift() (drifting bool, modelKey string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.Drifting(), s.fold.ModelKey()
}

// Outcomes returns the number of outcome records across the spool.
func (s *Spool) Outcomes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.Outcomes()
}

// Segments returns the number of admitted segments.
func (s *Spool) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}
