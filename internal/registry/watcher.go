package registry

import (
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

// Watcher polls a sealed model file and feeds changed versions through
// the registry's validation gate. Change detection is two-level: a
// cheap stat (mtime + size) decides whether to read the file at all,
// and a content hash decides whether the bytes are actually new — an
// overwrite with identical content, or a touch(1), never restages. The
// hash is the image's header digest, which is also the model's
// identity. A file that is not a sealed image (a v2 JSON export,
// garbage, a damaged header) is rejected, keyed by the sha256 of its
// bytes.
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
	// A sealed image carries its content hash in its first 48 bytes, so
	// a changed stat over unchanged content costs a header read, not a
	// whole-file read.
	hash, err := w.headerHash()
	if err == nil {
		// The header read does not prove the body is finished; the stat
		// memo's raced-writer caveat is covered by mtimeSlack, which
		// re-reads until the tick has safely passed.
		w.lastMod, w.lastSize, w.lastReadAt = info.ModTime(), info.Size(), time.Now()
		activeVer, seen := w.memoized(hash)
		if seen || w.serving(hash, activeVer) {
			return nil, Unchanged, nil
		}
	}

	// The model loads from a private copy of the file, never a mapping
	// of it: an operator may rewrite the file in place, and a mapping of
	// a truncated file faults on the next request the snapshot serves.
	data, rerr := os.ReadFile(w.path)
	if rerr != nil {
		w.lastHash = "" // memoize nothing: retry next poll
		return nil, Rejected, fmt.Errorf("read model file: %w", rerr)
	}
	// Memoize the stat only after a successful read, so a read that
	// raced a writer is retried next poll.
	w.lastMod, w.lastSize, w.lastReadAt = info.ModTime(), info.Size(), time.Now()
	if err == nil {
		cat, rec, lerr := modelio.LoadBytes(data)
		if lerr == nil {
			return w.submit(cat, rec)
		}
		err = lerr
	}

	// The file is not a sealed image, or it failed to open or verify.
	// Only its bytes identify it, so the rejection memo is keyed on their
	// sha256: an unchanged file is rejected once, not once per poll, and
	// a torn write we raced cannot poison the header hash its finished
	// file will carry — the next poll after the writer finishes sees a
	// key the memo does not cover.
	key := HashBytes(data)
	activeVer, seen := w.memoized(key)
	if seen {
		return nil, Unchanged, nil
	}
	w.lastRejected, w.lastHashActive = true, activeVer
	w.logf("registry: candidate %s (%.8s) rejected: %v", w.path, key, err)
	return nil, Rejected, fmt.Errorf("load candidate: %w", err)
}

// headerHash reads the fixed header prefix and returns the embedded
// content hash, or why the file is not a sealed image.
func (w *Watcher) headerHash() (string, error) {
	f, err := os.Open(w.path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var prefix [arena.HeaderPrefixLen]byte
	n, _ := f.ReadAt(prefix[:], 0) //lint:allow droppederr -- a short or failed read fails HeaderHash below, which reports it
	return arena.HeaderHash(prefix[:n])
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
// the bytes of a file it rejected, and the content address of shipped
// feedback segments. It is not a model identity; that is the sealed
// image's embedded digest (Snapshot.Hash, modelio.ContentHash).
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
