package registry

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
)

// sealModel returns a recommender's sealed image, the file the watcher
// loads.
func sealModel(t *testing.T, cat *model.Catalog, rec *core.Recommender) []byte {
	t.Helper()
	data, err := modelio.Seal(cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// exportModel returns a recommender's v2 JSON export, as profitminer
// -save writes it.
func exportModel(t *testing.T, cat *model.Catalog, rec *core.Recommender) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := modelio.Save(&buf, cat, grocerySpec(), rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeSeq makes every writeFile stamp a strictly increasing mtime, so
// the watcher's stat-level change detection cannot miss a rewrite on
// filesystems with coarse timestamps.
var writeSeq atomic.Int64

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now().Add(time.Duration(writeSeq.Add(1)) * 10 * time.Millisecond)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

func TestWatcherPromotesAndRejects(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	catB, recB := buildGrocery(t, 1000, 7)
	sealedA := sealModel(t, catA, recA)
	sealedB := sealModel(t, catB, recB)
	hashA, hashB := recA.Sealed().ContentHash(), recB.Sealed().ContentHash()
	if hashA == hashB {
		t.Fatal("test models must differ")
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

	// Initial load promotes version 1.
	snap, outcome, err := w.Check()
	if err != nil || outcome != Promoted {
		t.Fatalf("initial check: outcome %v, err %v", outcome, err)
	}
	if snap.Hash != hashA || reg.Active().Version != 1 {
		t.Fatalf("initial snapshot: hash %.8s, version %d", snap.Hash, reg.Active().Version)
	}

	// Unchanged file: cheap no-op.
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("unchanged check: outcome %v, err %v", outcome, err)
	}

	// Rewritten with identical content: the stat changes, the hash does
	// not, so nothing restages.
	writeFile(t, path, sealedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("identical rewrite: outcome %v, err %v", outcome, err)
	}

	// New content, written over the served file in place, promotes
	// version 2. The replaced snapshot must still answer from its own
	// bytes: it was loaded from a copy of the file.
	first := snap
	writeFile(t, path, sealedB)
	snap, outcome, err = w.Check()
	if err != nil || outcome != Promoted {
		t.Fatalf("swap check: outcome %v, err %v", outcome, err)
	}
	if snap.Hash != hashB || reg.Active().Version != 2 {
		t.Fatal("swap did not promote the new content")
	}
	for _, it := range catA.Items() {
		if it.Target {
			continue
		}
		basket := model.Basket{{Item: it.ID, Promo: catA.Promos(it.ID)[0], Qty: 1}}
		got, want := first.Rec.RecommendTopK(basket, 3), recA.RecommendTopK(basket, 3)
		for i := range want {
			if i >= len(got) || got[i].ID != want[i].ID {
				t.Fatalf("replaced snapshot answers %v for %s, built model %v", got, it.Name, want)
			}
		}
	}

	// A v2 JSON export is not a sealed image: rejected, version 2 keeps
	// serving, and the next poll does not reject the same bad bytes
	// again (the stat here is too fresh to trust, so the byte-hash memo
	// answers).
	writeFile(t, path, exportModel(t, catA, recA))
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("v2 export: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Hash != hashB {
		t.Fatal("rejected candidate disturbed the active snapshot")
	}
	if _, outcome, err := w.Check(); err != nil || outcome != Unchanged {
		t.Fatalf("watcher re-rejected a remembered bad file: outcome %v, err %v", outcome, err)
	}

	// Restoring good content recovers without restart.
	writeFile(t, path, sealedA)
	if _, outcome, err := w.Check(); err != nil || outcome != Promoted {
		t.Fatalf("recovery: outcome %v, err %v", outcome, err)
	}
	if reg.Active().Version != 3 || reg.Active().Hash != hashA {
		t.Fatal("recovery did not promote")
	}
}

func TestWatcherRunPromotesWithinPollInterval(t *testing.T) {
	catA, recA := buildGrocery(t, 800, 3)
	catB, recB := buildGrocery(t, 1000, 7)
	sealedA := sealModel(t, catA, recA)
	sealedB := sealModel(t, catB, recB)

	path := filepath.Join(t.TempDir(), "model.pma")
	writeFile(t, path, sealedA)

	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(reg, path, 20*time.Millisecond, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for reg.Active() == nil {
		if time.Now().After(deadline) {
			t.Fatal("initial model never promoted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	writeFile(t, path, sealedB)
	want := recB.Sealed().ContentHash()
	for reg.Active().Hash != want {
		if time.Now().After(deadline) {
			t.Fatalf("swap never promoted; active %.8s", reg.Active().Hash)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatcherSameTickSameSizeRewrite pins the "racily clean" hazard on
// the rejection path: a rewrite that keeps the size and lands within the
// same mtime tick as the read that memoized the stat. The files here are
// not sealed images, so only their bytes identify them; the stat fast
// path alone would call the file unchanged, and the watcher must keep
// reading until the memoized mtime is comfortably in the past.
func TestWatcherSameTickSameSizeRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.pma")
	junkA := []byte(`{"format":"junkA"}`)
	junkB := []byte(`{"format":"junkB"}`)
	if len(junkA) != len(junkB) {
		t.Fatal("payloads must have equal size")
	}
	// One fixed timestamp for both writes: a coarse-timestamp filesystem
	// where the rewrite happens within the tick of the first read.
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

	writeAt(junkA)
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("first junk: outcome %v, err %v", outcome, err)
	}

	// Same size, same mtime, different bytes: the byte-hash memo of the
	// first rejection must not cover the new content.
	writeAt(junkB)
	if _, outcome, err := w.Check(); err == nil || outcome != Rejected {
		t.Fatalf("same-tick same-size rewrite missed: outcome %v, err %v", outcome, err)
	}
}

func TestNewWatcherValidation(t *testing.T) {
	reg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWatcher(nil, "x", time.Second, nil); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := NewWatcher(reg, "", time.Second, nil); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := NewWatcher(reg, "x", time.Millisecond, nil); err == nil {
		t.Error("sub-10ms interval accepted")
	}
}
