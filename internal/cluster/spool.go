package cluster

import (
	"bytes"
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
// With a directory configured, admitted segments are also spooled to
// disk (<spoolKey>.walseg) and reloaded on restart, making the
// coordinator's aggregate as durable as the replicas' logs.
type Spool struct {
	mu    sync.Mutex
	dir   string // "" = memory only
	drift feedback.DriftConfig

	segs map[string][]byte // spool key → segment bytes

	// fold is the cached cluster fold; foldKeys are the spool keys it
	// has applied, ascending. A new segment whose key sorts after every
	// applied key extends the fold in place; one that sorts earlier
	// forces a rebuild, because the deterministic order says its records
	// happened "before" records already folded.
	fold     *feedback.Fold
	foldKeys []string
}

// NewSpool opens a spool, reloading (and strictly re-validating) any
// segments already on disk in dir. An empty dir keeps the spool in
// memory only.
func NewSpool(dir string, drift feedback.DriftConfig) (*Spool, error) {
	s := &Spool{dir: dir, drift: drift, segs: make(map[string][]byte), fold: feedback.NewFold(drift)}
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
		key := strings.TrimSuffix(name, ".walseg")
		if err := feedback.ParseSegment(data, func([]byte) error { return nil }); err != nil {
			return nil, fmt.Errorf("cluster: spooled segment %s: %w", name, err)
		}
		s.segs[key] = data
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
// claimed content hash and every CRC frame before admission. A segment
// already present with identical bytes (a re-ship after a replica
// restart) is a no-op; the same (node, seq) with different bytes is an
// error, because sealed segments are immutable by contract. added
// reports whether the segment was new.
func (s *Spool) Ingest(nodeID string, seq int, claimedHash string, data []byte) (key string, added bool, err error) {
	if seq < 1 {
		return "", false, fmt.Errorf("cluster: segment sequence %d out of range", seq)
	}
	if got := registry.HashBytes(data); got != claimedHash {
		return "", false, fmt.Errorf("cluster: segment hash mismatch: claimed %.8s, got %.8s", claimedHash, got)
	}
	if err := feedback.ParseSegment(data, func([]byte) error { return nil }); err != nil {
		return "", false, err
	}
	key = SpoolKey(nodeID, seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.segs[key]; ok {
		if !bytes.Equal(have, data) {
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
	s.segs[key] = append([]byte(nil), data...)

	// Maintain the cached fold: an append at the end of the total order
	// extends in place; anything else rebuilds from scratch.
	if n := len(s.foldKeys); n == 0 || s.foldKeys[n-1] < key {
		if err := feedback.ParseSegment(data, applyAs(s.fold, key)); err != nil {
			return "", false, err
		}
		s.foldKeys = append(s.foldKeys, key)
	} else {
		s.rebuildLocked()
	}
	return key, true, nil
}

// applyAs binds a fold to the node identity embedded in a spool key
// (the hashed node component before the sequence suffix).
func applyAs(f *feedback.Fold, spoolKey string) func([]byte) error {
	node := spoolKey
	if i := strings.IndexByte(spoolKey, '-'); i > 0 {
		node = spoolKey[:i]
	}
	return func(payload []byte) error { return f.Apply(node, payload) }
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
		// Segments were strictly validated at admission; a parse error
		// here would mean in-memory corruption, which Stats surfaces as
		// missing records rather than a poisoned coordinator.
		//lint:allow droppederr -- segments were CRC+parse validated at admission; a failure here is in-memory corruption, surfaced as missing records rather than a poisoned coordinator
		_ = feedback.ParseSegment(s.segs[k], applyAs(f, k))
	}
	s.fold, s.foldKeys = f, keys
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
