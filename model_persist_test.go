package profitmining_test

import (
	"bytes"
	"os"
	"path/filepath"
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
