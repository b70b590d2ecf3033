package profitmining_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"profitmining"
	"profitmining/internal/modelio"
)

func TestModelPersistenceFacade(t *testing.T) {
	g := profitmining.NewGrocery(600, 19)
	rec, err := profitmining.Build(g.Dataset, profitmining.Options{
		MinSupport: 0.01,
		Hierarchy:  g.Builder,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.pma")
	if err := profitmining.SealModel(path, g.Dataset.Catalog, rec); err != nil {
		t.Fatal(err)
	}
	if err := profitmining.VerifyModel(path); err != nil {
		t.Fatal(err)
	}
	cat2, rec2, err := profitmining.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	// Behavioural parity on every training basket.
	for i := range g.Dataset.Transactions {
		basket := g.Dataset.Transactions[i].NonTarget
		a := rec.Recommend(basket)
		b := rec2.Recommend(basket)
		if g.Dataset.Catalog.Item(a.Item).Name != cat2.Item(b.Item).Name || a.ID != b.ID {
			t.Fatalf("basket %d: loaded model recommends %s [%s], original %s [%s]",
				i, cat2.Item(b.Item).Name, b.ID, g.Dataset.Catalog.Item(a.Item).Name, a.ID)
		}
	}

	// A loaded model has no covering tree: its report is the built
	// model's first three lines (size, projected profit, rules by body
	// length), read off the image.
	built, loaded := rec.Report(), rec2.Report()
	lines := strings.SplitAfter(built, "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[2], "rules by body length:") {
		t.Fatalf("built report lost its header lines:\n%s", built)
	}
	if want := strings.Join(lines[:3], ""); loaded != want {
		t.Fatalf("loaded model reports\n%s\nwant the built report's header\n%s", loaded, want)
	}
}

// TestLoadModelSurvivesInPlaceRewrite: a model opened with LoadModel
// serves from its own copy of the file's bytes, so overwriting the file
// in place changes none of its answers, its identity or its checksum,
// and cannot fault the process.
func TestLoadModelSurvivesInPlaceRewrite(t *testing.T) {
	g := profitmining.NewGrocery(600, 19)
	rec, err := profitmining.Build(g.Dataset, profitmining.Options{
		MinSupport: 0.01,
		Hierarchy:  g.Builder,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.pma")
	if err := profitmining.SealModel(path, g.Dataset.Catalog, rec); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := profitmining.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	baskets := g.Dataset.Transactions[:50]
	want := make([][]profitmining.Recommendation, len(baskets))
	for i := range baskets {
		want[i] = loaded.RecommendTopK(baskets[i].NonTarget, 3)
	}
	hash := loaded.Sealed().ContentHash()

	if err := os.WriteFile(path, []byte("rewritten"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range baskets {
		if got := loaded.RecommendTopK(baskets[i].NonTarget, 3); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("basket %d: after the rewrite the model answers %v, before %v", i, got, want[i])
		}
	}
	if got := loaded.Sealed().ContentHash(); got != hash {
		t.Errorf("content hash changed from %s to %s", hash, got)
	}
	if err := loaded.Sealed().Verify(); err != nil {
		t.Errorf("model fails Verify after its file was rewritten: %v", err)
	}
}

// TestLoadersRefuseV2Export: the v2 JSON export is write-only. Every
// entry point that loads or verifies a model refuses it with an error,
// never a panic.
func TestLoadersRefuseV2Export(t *testing.T) {
	g := profitmining.NewGrocery(300, 5)
	rec, err := profitmining.Build(g.Dataset, profitmining.Options{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if err := profitmining.WriteModel(&export, g.Dataset.Catalog, nil, rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, export.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() error{
		"LoadModel": func() error {
			_, _, err := profitmining.LoadModel(path)
			return err
		},
		"modelio.LoadBytes": func() error {
			_, _, err := modelio.LoadBytes(export.Bytes())
			return err
		},
		"VerifyModel": func() error { return profitmining.VerifyModel(path) },
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s panicked on the v2 export: %v", name, p)
				}
			}()
			if err := load(); err == nil {
				t.Errorf("%s accepted the v2 export", name)
			}
		}()
	}
}

func TestSyntheticHierarchyFacade(t *testing.T) {
	ds, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
		NumTransactions: 600,
		NumItems:        60,
		Seed:            23,
	}, 24)
	if err != nil {
		t.Fatal(err)
	}
	hb := profitmining.SyntheticHierarchy(ds.Catalog, 10)
	rec, err := profitmining.Build(ds, profitmining.Options{MinSupport: 0.02, Hierarchy: hb})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats().RulesFinal == 0 {
		t.Fatal("hierarchy build produced no rules")
	}
	// At least one rule should use a synthetic concept in its body.
	found := false
	for _, r := range rec.Rules() {
		for _, g := range r.Body {
			if name := rec.Space().Name(g); len(name) > 1 && name[0] == 'g' {
				found = true
			}
		}
	}
	if !found {
		t.Log("no concept-level rules survived pruning (acceptable but unusual)")
	}
}
