package registry

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"profitmining/internal/modelio"
)

// TestWatcherStagesSealedModel pins what the watcher does with a sealed
// file beyond the lifecycle TestWatcherPromotesAndRejects walks. The
// staging identity must be the embedded header checksum — no
// whole-file hashing pass on the poll path — and corruption must either
// be rejected or, when the damaged file still claims the serving
// identity, be ignored while the active snapshot keeps serving. A torn
// write must not poison the hash its finished file carries.
func TestWatcherStagesSealedModel(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	catB, recB := buildGrocery(t, 1000, 7)
	sealedA := sealModel(t, catA, recA)
	sealedB := sealModel(t, catB, recB)
	hashA := modelio.ContentHash(sealedA)
	hashB := modelio.ContentHash(sealedB)
	if hashA == HashBytes(sealedA) {
		t.Fatal("sealed content hash should be the header checksum, not the file sha256")
	}

	path := filepath.Join(t.TempDir(), "model.pma")
	writeFile(t, path, sealedA)

	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(reg, path, 50*time.Millisecond, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	snap, outcome, err := w.Check()
	if err != nil || outcome != Promoted {
		t.Fatalf("initial sealed check: outcome %v, err %v", outcome, err)
	}
	if snap.Hash != hashA {
		t.Fatalf("sealed snapshot hash %.8s, want header checksum %.8s", snap.Hash, hashA)
	}
	if snap.Rec.Tree() != nil {
		t.Fatal("watcher staged a sealed file with build output")
	}

	// A flipped payload byte with an intact header still claims hash A —
	// the identity already serving — so the watcher must not restage it,
	// and version 1 keeps serving untouched.
	flippedA := append([]byte(nil), sealedA...)
	flippedA[len(flippedA)-10] ^= 0x40
	writeFile(t, path, flippedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("payload corruption claiming the active hash: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != hashA {
		t.Fatal("corrupt rewrite disturbed the active snapshot")
	}

	// A torn write of B: the header is complete and claims hash B, the
	// body is not. It is rejected; once the writer finishes, the same
	// header hash must promote rather than hit the rejection memo.
	writeFile(t, path, sealedB[:len(sealedB)/2])
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("torn sealed write: outcome %v, err %v", outcome, err)
	}
	writeFile(t, path, sealedB)
	if snap, outcome, err := w.Check(); err != nil || outcome != Promoted || snap.Hash != hashB {
		t.Fatalf("finished write after a torn one: outcome %v, err %v", outcome, err)
	}

	// A flipped checksum byte presents a new identity that fails Verify:
	// rejected, active keeps serving. The rejection memo is deliberately
	// keyed on the file's true content bytes (so a torn write that later
	// completes is retried), which means suppression of an unchanged
	// corrupt file falls to the stat fast path — give the file a settled
	// mtime (outside the slack window) so that path can engage.
	badSum := append([]byte(nil), sealedB...)
	badSum[20] ^= 0x01
	if err := os.WriteFile(path, badSum, 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-10 * time.Second)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("corrupt sealed checksum: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != hashB {
		t.Fatal("rejected sealed candidate disturbed the active snapshot")
	}
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("watcher re-opened a remembered bad sealed file: outcome %v, err %v", outcome, err)
	}
}

// TestWatcherSealedSameTickSameSizeRewrite is the sealed twin of the
// "racily clean" regression: replacing a sealed file with same-size
// different-content bytes within the mtime tick of the memoizing read
// must still be detected. The header-hash fast path replaces the
// whole-file hashing pass, but it must not inherit the stat fast
// path's blind spot.
func TestWatcherSealedSameTickSameSizeRewrite(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	sealedA := sealModel(t, catA, recA)
	// Same length, different bytes, different header hash: damage the
	// stored checksum itself so the rewrite presents a fresh identity.
	sealedX := append([]byte(nil), sealedA...)
	sealedX[20] ^= 0x01

	path := filepath.Join(t.TempDir(), "model.pma")
	tick := time.Now().Truncate(time.Second)
	writeAt := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, tick, tick); err != nil {
			t.Fatal(err)
		}
	}

	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(reg, path, 50*time.Millisecond, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	writeAt(sealedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Promoted {
		t.Fatalf("initial sealed model: outcome %v, err %v", outcome, err)
	}

	// Same size, same mtime, different bytes. A stat-only fast path
	// would report Unchanged and serve the stale model; the watcher must
	// read the header and notice the new (here: corrupt, so rejected)
	// content.
	writeAt(sealedX)
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("same-tick same-size sealed rewrite missed: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != modelio.ContentHash(sealedA) {
		t.Fatal("rejected rewrite disturbed the active snapshot")
	}
}
