package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/dataio"
	"profitmining/internal/feedback"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// TestOneModelOneIdentity builds one model and brings it into a registry
// three ways — submitted in process, as a sealed file through
// registry.Watcher, and synced from a Coordinator to a Replica — and
// requires every snapshot to carry the same hash: the digest in the
// sealed image's header. Its v2 JSON export is not a fourth way in: the
// watcher rejects it and keeps the active snapshot.
func TestOneModelOneIdentity(t *testing.T) {
	spec := &dataio.HierarchySpec{
		Concepts: []dataio.ConceptSpec{
			{Name: "Cosmetics"},
			{Name: "Food"},
			{Name: "Meat", Parents: []string{"Food"}},
			{Name: "Bakery", Parents: []string{"Food"}},
		},
		Placements: map[string][]string{
			"Perfume":       {"Cosmetics"},
			"Shampoo":       {"Cosmetics"},
			"FlakedChicken": {"Meat"},
			"Bread":         {"Bakery"},
		},
	}
	g := datagen.NewGrocery(800, 5)
	cat := g.Dataset.Catalog
	hb, err := spec.Builder(cat)
	if err != nil {
		t.Fatal(err)
	}
	space, err := hb.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(space, g.Dataset.Transactions, mining.Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, g.Dataset.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	image, err := modelio.Seal(cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := arena.HeaderHash(image[:arena.HeaderPrefixLen])
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := modelio.Save(&v2, cat, spec, rec); err != nil {
		t.Fatal(err)
	}

	hashes := map[string]string{}

	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := reg.Submit(cat, rec, "in process", "")
	if err != nil {
		t.Fatal(err)
	}
	hashes["in process"] = snap.Hash

	path := filepath.Join(t.TempDir(), "model")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	wreg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := registry.NewWatcher(wreg, path, time.Second, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	snap, outcome, err := w.Check()
	if err != nil || outcome != registry.Promoted {
		t.Fatalf("sealed file: outcome %v, err %v", outcome, err)
	}
	hashes["sealed file"] = snap.Hash

	if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := w.Check(); err == nil || outcome != registry.Rejected {
		t.Fatalf("v2 export: outcome %v, err %v", outcome, err)
	}
	if a := wreg.Active(); a.Hash != want || a.Version != 1 {
		t.Fatalf("v2 export disturbed the active snapshot: version %d, hash %.8s", a.Version, a.Hash)
	}

	_, _, stacks := newFleet(t, 1, CoordinatorConfig{Model: image})
	hashes["cluster sync"] = stacks[0].reg.Active().Hash

	for route, got := range hashes {
		if got != want {
			t.Errorf("%s: snapshot hash %.8s, want the image digest %.8s", route, got, want)
		}
	}
	if len(hashes) != 3 {
		t.Fatalf("checked %d routes, want 3", len(hashes))
	}
}

// TestReplicaRejectsUnsealedModel: the coordinator publishes only sealed
// images, and a replica refuses anything else a coordinator serves.
func TestReplicaRejectsUnsealedModel(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if h := coord.SetModel([]byte(`{"format":"profitmining-model/v2"}`)); h != "" || coord.ModelHash() != "" {
		t.Fatalf("coordinator published a JSON model as %q", h)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Model: []byte(`{"format":"profitmining-model/v2"}`)}); err == nil {
		t.Fatal("coordinator started with a JSON initial model")
	}

	// A foreign coordinator serving JSON bytes.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"format":"profitmining-model/v2"}`))
	}))
	t.Cleanup(fake.Close)
	st := newStack(t, fake.URL, feedback.WALOptions{})
	if _, err := st.rep.SyncModel(context.Background()); err == nil {
		t.Fatal("replica accepted a model that is not a sealed image")
	}
	if st.reg.Active() != nil {
		t.Fatal("replica promoted a non-sealed model")
	}
}
