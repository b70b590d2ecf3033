package registry

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"time"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
)

// Watcher polls a model file and feeds changed versions through the
// registry's validation gate. Change detection is two-level: a cheap
// stat (mtime + size) decides whether to read the file at all, and a
// content hash decides whether the bytes are actually new — an
// overwrite with identical content, or a touch(1), never restages. A
// sealed file's hash is its header digest, which is also the model's
// identity; a JSON file is keyed by the sha256 of its bytes until
// decoded, and then compared by the digest of the image it seals into.
//
// The stat fast path is only trusted once the memoized mtime is
// comfortably older than the read that memoized it (mtimeSlack). A file
// rewritten with same-size content within one mtime tick — coarse
// filesystem timestamps, fast CI writers — stats identical to what was
// just read; re-hashing until the tick has safely passed closes that
// window (the same "racily clean" hazard git's index handles this way).
//
// A candidate that fails to load or validate is remembered by hash so
// the poll loop does not re-parse the same broken file every interval;
// the active snapshot keeps serving. A rejection memo is keyed on the
// active version too: rejections can be state-dependent (Options.Gate
// compares candidates against the then-active snapshot), so the same
// bytes are retried once the active model changes.
type Watcher struct {
	reg      *Registry
	path     string
	interval time.Duration
	logf     func(format string, args ...any)

	// memo of the last poll; Check is callable from both the poll loop
	// and /admin/reload, so the memo lives under a mutex.
	mu         sync.Mutex
	lastMod    time.Time
	lastSize   int64
	lastReadAt time.Time // when the memoized stat was taken

	lastHash       string // last content hash seen, accepted or rejected
	lastRejected   bool   // whether lastHash was rejected
	lastHashActive int    // active version when lastHash was memoized
}

// mtimeSlack is how much older than its read a memoized mtime must be
// before an unchanged stat is trusted to mean unchanged content.
const mtimeSlack = 2 * time.Second

// NewWatcher creates a watcher over path polling at interval (minimum
// 10ms). logf receives one line per state change (nil discards).
func NewWatcher(reg *Registry, path string, interval time.Duration, logf func(string, ...any)) (*Watcher, error) {
	if reg == nil {
		return nil, fmt.Errorf("registry: watcher needs a registry")
	}
	if path == "" {
		return nil, fmt.Errorf("registry: watcher needs a model path")
	}
	if interval < 10*time.Millisecond {
		return nil, fmt.Errorf("registry: poll interval %v below 10ms", interval)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watcher{reg: reg, path: path, interval: interval, logf: logf}, nil
}

// Run polls until ctx is done. The first poll happens immediately.
func (w *Watcher) Run(ctx context.Context) {
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		if _, _, err := w.Check(); err != nil {
			w.logf("registry: watch %s: %v", w.path, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// Check performs one poll: stat, hash, load, validate, submit. It is
// safe to call concurrently with the poll loop (/admin/reload does);
// concurrent calls serialize. The returned snapshot is non-nil when the
// outcome is Promoted or Staged.
func (w *Watcher) Check() (*Snapshot, Outcome, error) {
	w.mu.Lock()
	defer w.mu.Unlock()

	info, err := os.Stat(w.path)
	if err != nil {
		return nil, Rejected, fmt.Errorf("stat model file: %w", err)
	}
	if info.ModTime().Equal(w.lastMod) && info.Size() == w.lastSize &&
		w.lastReadAt.Sub(w.lastMod) >= mtimeSlack {
		// Unchanged stat, and the mtime tick had safely passed when we
		// last read: any later write would have bumped the mtime.
		return nil, Unchanged, nil
	}
	// Sealed models carry their content hash in the first 48 bytes, so
	// identifying one costs a header read per changed stat, not a
	// whole-file hashing pass.
	if hash, ok := w.sealedHeaderHash(); ok {
		return w.checkSealed(info, hash)
	}

	data, err := os.ReadFile(w.path)
	if err != nil {
		return nil, Rejected, fmt.Errorf("read model file: %w", err)
	}
	// Memoize the stat only after a successful read, so a read that
	// raced a writer is retried next poll.
	w.lastMod, w.lastSize, w.lastReadAt = info.ModTime(), info.Size(), time.Now()

	// A JSON file's identity is the digest of the image it is sealed
	// into, known only once decoded; the sha256 of its bytes keys the
	// memo instead, so an unchanged file is decoded once, not per poll.
	activeVer, seen := w.memoized(HashBytes(data))
	if seen {
		return nil, Unchanged, nil
	}
	cat, rec, err := modelio.Load(bytes.NewReader(data))
	if err != nil {
		w.lastRejected, w.lastHashActive = true, activeVer
		w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, w.lastHash, err)
		return nil, Rejected, fmt.Errorf("load candidate: %w", err)
	}
	if w.serving(rec.Sealed().ContentHash(), activeVer) {
		return nil, Unchanged, nil
	}
	return w.submit(cat, rec)
}

// checkSealed stages a sealed model file: dedup by the embedded header
// checksum, then mmap-open and fully verify once per new content hash.
func (w *Watcher) checkSealed(info os.FileInfo, hash string) (*Snapshot, Outcome, error) {
	// The header read replaces the whole-file read of the JSON path; the
	// stat memo carries the same raced-writer caveat, covered the same
	// way (mtimeSlack re-reads until the tick has safely passed).
	w.lastMod, w.lastSize, w.lastReadAt = info.ModTime(), info.Size(), time.Now()

	activeVer, seen := w.memoized(hash)
	if seen || w.serving(hash, activeVer) {
		return nil, Unchanged, nil
	}
	cat, rec, err := modelio.OpenSealed(w.path, arena.Options{})
	if err != nil {
		// A failed open or checksum may be a torn write we raced: the
		// finished file would carry this same header hash, so a memo
		// keyed on it would reject the finished file forever. Re-key the
		// rejection on the true content bytes; if the writer has since
		// finished, the next poll sees a hash the memo does not cover.
		if data, rerr := os.ReadFile(w.path); rerr == nil {
			w.lastHash = HashBytes(data)
		} else {
			w.lastHash = ""
		}
		w.lastRejected, w.lastHashActive = true, activeVer
		w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, hash, err)
		return nil, Rejected, fmt.Errorf("load sealed candidate: %w", err)
	}
	return w.submit(cat, rec)
}

// sealedHeaderHash reads the fixed header prefix and returns the
// embedded content hash if the file is a sealed model.
func (w *Watcher) sealedHeaderHash() (string, bool) {
	f, err := os.Open(w.path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	var prefix [arena.HeaderPrefixLen]byte
	n, _ := f.ReadAt(prefix[:], 0) //lint:allow droppederr -- a short or failed read fails HeaderHash below, which routes to the JSON path's full error handling
	hash, err := arena.HeaderHash(prefix[:n])
	if err != nil {
		// Bad magic: not sealed. Sealed magic with a damaged header: let
		// the JSON path read and reject it, memoized by content hash.
		return "", false
	}
	return hash, true
}

// memoized runs the memo for a freshly determined key: the last key
// seen covers it, unless that key was rejected against an active
// version that no longer serves (gate rejections are state-dependent).
// Otherwise key is memoized as in progress and the caller loads.
func (w *Watcher) memoized(key string) (activeVer int, seen bool) {
	if a := w.reg.Active(); a != nil {
		activeVer = a.Version
	}
	if key == w.lastHash && (!w.lastRejected || activeVer == w.lastHashActive) {
		return activeVer, true
	}
	w.lastHash = key
	return activeVer, false
}

// serving reports whether the registry already serves or stages the
// model identified by hash (e.g. an in-process refresh promoted it),
// memoizing the current key as accepted if so: nothing to resubmit.
func (w *Watcher) serving(hash string, activeVer int) bool {
	a, st := w.reg.Active(), w.reg.Staged()
	if (a != nil && a.Hash == hash) || (st != nil && st.Hash == hash) {
		w.lastRejected, w.lastHashActive = false, activeVer
		return true
	}
	return false
}

// submit feeds a loaded candidate through the registry and memoizes the
// outcome against the post-Submit active version: when this very Submit
// promoted the candidate, the memo must not read our own promotion as
// an invalidation on the next poll.
func (w *Watcher) submit(cat *model.Catalog, rec *core.Recommender) (*Snapshot, Outcome, error) {
	hash := rec.Sealed().ContentHash()
	snap, outcome, err := w.reg.Submit(cat, rec, w.path, "")
	w.lastRejected = err != nil
	if a := w.reg.Active(); a != nil {
		w.lastHashActive = a.Version
	} else {
		w.lastHashActive = 0
	}
	if err != nil {
		w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, hash, err)
		return nil, outcome, err
	}
	w.logf("registry: version %d (%.8s) %s from %s", snap.Version, hash, outcome, w.path)
	return snap, outcome, nil
}

// Path returns the watched model file.
func (w *Watcher) Path() string { return w.path }

// HashBytes returns the hex sha256 of data: the watcher's memo key for
// a JSON model file's bytes, and the content address of shipped
// feedback segments. It is not a model identity; that is the sealed
// image's embedded digest (Snapshot.Hash, modelio.ContentHash).
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
