package modelio

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/quest"
)

// buildGrocery trains a recommender on the grocery dataset with its
// hierarchy.
func buildGrocery(t *testing.T) (*datagen.Grocery, *dataio.HierarchySpec, *core.Recommender) {
	t.Helper()
	g := datagen.NewGrocery(1200, 7)
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
	hb, err := spec.Builder(g.Dataset.Catalog)
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
	return g, spec, rec
}

func TestModelRoundTrip(t *testing.T) {
	g, spec, rec := buildGrocery(t)

	var buf bytes.Buffer
	if err := Save(&buf, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	cat2, rec2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if cat2.NumItems() != g.Dataset.Catalog.NumItems() || cat2.NumPromos() != g.Dataset.Catalog.NumPromos() {
		t.Fatal("catalog changed in round trip")
	}
	if rec2.Stats().RulesFinal != rec.Stats().RulesFinal {
		t.Fatalf("rule count changed: %d vs %d", rec2.Stats().RulesFinal, rec.Stats().RulesFinal)
	}
	if math.Abs(rec2.Stats().ProjectedProfit-rec.Stats().ProjectedProfit) > 1e-9 {
		t.Fatalf("projected profit changed: %g vs %g",
			rec2.Stats().ProjectedProfit, rec.Stats().ProjectedProfit)
	}
	if rec2.Stats().RulesGenerated != rec.Stats().RulesGenerated {
		t.Error("generated-rule stat lost")
	}

	// Every rule survives with identical measures, matched by rank order.
	r1, r2 := rec.Rules(), rec2.Rules()
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.BodyCount != b.BodyCount || a.HitCount != b.HitCount ||
			math.Abs(a.Profit-b.Profit) > 1e-9 || a.Order != b.Order || len(a.Body) != len(b.Body) {
			t.Fatalf("rule %d changed: %s vs %s",
				i, a.String(rec.Space()), b.String(rec2.Space()))
		}
	}
}

// TestLoadedModelRecommendsIdentically is the behavioural equivalence:
// the loaded model must answer every basket exactly like the original.
func TestLoadedModelRecommendsIdentically(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	var buf bytes.Buffer
	if err := Save(&buf, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	cat2, rec2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for i := range g.Dataset.Transactions {
		basket := g.Dataset.Transactions[i].NonTarget
		a := rec.Recommend(basket)
		b := rec2.Recommend(basket)
		// Compare structurally: item names and promo parameters (IDs are
		// catalog-relative but catalogs are built identically here).
		if g.Dataset.Catalog.Item(a.Item).Name != cat2.Item(b.Item).Name {
			t.Fatalf("basket %d: item %s vs %s", i,
				g.Dataset.Catalog.Item(a.Item).Name, cat2.Item(b.Item).Name)
		}
		pa, pb := g.Dataset.Catalog.Promo(a.Promo), cat2.Promo(b.Promo)
		if pa.Price != pb.Price || pa.Cost != pb.Cost || pa.Packing != pb.Packing {
			t.Fatalf("basket %d: promo %+v vs %+v", i, pa, pb)
		}
		// Top-K parity too.
		ta := rec.RecommendTopK(basket, 2)
		tb := rec2.RecommendTopK(basket, 2)
		if len(ta) != len(tb) {
			t.Fatalf("basket %d: TopK sizes %d vs %d", i, len(ta), len(tb))
		}
	}
}

func TestSaveFileErrorPaths(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	dir := t.TempDir()
	if err := SaveFile(dir, g.Dataset.Catalog, spec, rec); err == nil {
		t.Error("saving to a directory path must fail")
	}
	if err := SaveFile(filepath.Join(dir, "no", "dir", "m.pmm"), g.Dataset.Catalog, spec, rec); err == nil {
		t.Error("saving into a missing directory must fail")
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	path := filepath.Join(t.TempDir(), "model.pmm")
	if err := SaveFile(path, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Stats().RulesFinal != rec.Stats().RulesFinal {
		t.Error("file round trip changed the model")
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file must fail")
	}
}

func TestModelFlatDataset(t *testing.T) {
	// Flat synthetic dataset (no hierarchy spec at all).
	ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{
		NumTransactions: 600, NumItems: 40, Seed: 5,
	}, 6))
	if err != nil {
		t.Fatal(err)
	}
	space := hierarchy.Flat(ds.Catalog, hierarchy.Options{MOA: true})
	mined, err := mining.Mine(space, ds.Transactions, mining.Options{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, ds.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ds.Catalog, nil, rec); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	basket := ds.Transactions[0].NonTarget
	if rec.Recommend(basket).Rule.Order != rec2.Recommend(basket).Rule.Order {
		t.Error("flat model changed behaviour in round trip")
	}
}

// withChecksum stamps the v2 format and a valid checksum onto a
// hand-written model body, so a case gets past the integrity check and
// reaches the decoder check it targets.
func withChecksum(t *testing.T, body string) string {
	t.Helper()
	var mf modelFile
	if err := json.Unmarshal([]byte(body), &mf); err != nil {
		t.Fatal(err)
	}
	mf.Format = formatV2
	sum, err := checksum(&mf)
	if err != nil {
		t.Fatal(err)
	}
	mf.Checksum = sum
	data, err := json.Marshal(&mf)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestLoadErrors(t *testing.T) {
	const catA = `"items":[{"name":"A","target":true}],"promos":[{"item":1,"price":1,"cost":0,"packing":1}]`
	cases := []struct {
		name, input, want string
	}{
		{"garbage", "not json", "decoding model"},
		{"wrong format", `{"format":"x"}`, "unsupported format"},
		{"no tree", withChecksum(t, `{`+catA+`}`), "no covering tree"},
		{"unknown item in rule", withChecksum(t, `{`+catA+`,"tree":{"rule":{"head":{"kind":"promo","item":"Ghost","promoIx":0}}}}`), `unknown item "Ghost"`},
		{"unknown concept", withChecksum(t, `{`+catA+`,"tree":{"rule":{"body":[{"kind":"concept","name":"Nope"}],"head":{"kind":"promo","item":"A","promoIx":0}}}}`), `unknown concept "Nope"`},
		{"bad promo index", withChecksum(t, `{`+catA+`,"tree":{"rule":{"head":{"kind":"promo","item":"A","promoIx":7}}}}`), "no promo index 7"},
		{"bad gen kind", withChecksum(t, `{`+catA+`,"tree":{"rule":{"head":{"kind":"alien"}}}}`), `unknown generalized-sale kind "alien"`},
		{"non-default root", withChecksum(t, `{"items":[{"name":"A","target":true},{"name":"B"}],"promos":[{"item":1,"price":1,"cost":0,"packing":1},{"item":2,"price":1,"cost":0,"packing":1}],"tree":{"rule":{"body":[{"kind":"item","name":"B"}],"head":{"kind":"promo","item":"A","promoIx":0}}}}`), "not a default rule"},
		// A head must be an (item, promo) pair: the stable ID, the seal
		// and serving all resolve it to a catalog promo.
		{"item head", withChecksum(t, `{`+catA+`,"tree":{"rule":{"head":{"kind":"item","name":"A"}}}}`), "head A is not an (item, promo) pair"},
		{"concept head", withChecksum(t, `{"items":[{"name":"A","target":true},{"name":"B"}],"promos":[{"item":1,"price":1,"cost":0,"packing":1},{"item":2,"price":1,"cost":0,"packing":1}],"hierarchy":{"concepts":[{"name":"Food"}],"placements":{"B":["Food"]}},"tree":{"rule":{"head":{"kind":"concept","name":"Food"}}}}`), "head Food is not an (item, promo) pair"},
		{"item head of an alternate", withChecksum(t, `{`+catA+`,"tree":{"rule":{"head":{"kind":"promo","item":"A","promoIx":0}}},"alternates":[{"head":{"kind":"item","name":"A"}}]}`), "head A is not an (item, promo) pair"},
	}
	for _, tc := range cases {
		_, _, err := Load(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	if _, err := core.Restore(nil, nil, nil, 0, 0); err == nil {
		t.Error("nil inputs must fail")
	}
	cat := model.NewCatalog()
	it := cat.AddItem("T", true)
	cat.AddPromo(it, 2, 1, 1)
	space := hierarchy.Flat(cat, hierarchy.Options{MOA: true})
	_ = space
	if _, err := core.Restore(space, nil, nil, 0, 0); err == nil {
		t.Error("nil tree must fail")
	}
}

// TestChecksumDetectsBitFlip is the corruption regression: a single bit
// flipped inside the payload — still perfectly valid JSON — must be
// caught by the v2 checksum instead of restoring a silently wrong model.
func TestChecksumDetectsBitFlip(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	var buf bytes.Buffer
	if err := Save(&buf, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one bit of the first item-name byte: "Beer" → "Ceer" keeps
	// the JSON well-formed but changes the content.
	ix := bytes.Index(data, []byte(`"Beer"`))
	if ix < 0 {
		t.Fatal("grocery model lost its Beer")
	}
	flipped := append([]byte(nil), data...)
	flipped[ix+1] ^= 0x01

	if _, _, err := Load(bytes.NewReader(flipped)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bit-flipped model: err = %v, want checksum mismatch", err)
	}
	if err := Verify(bytes.NewReader(flipped)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Verify on bit-flipped model: err = %v", err)
	}

	// The pristine bytes still load and verify.
	if _, _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine model: %v", err)
	}
	if err := Verify(bytes.NewReader(data)); err != nil {
		t.Fatalf("Verify on pristine model: %v", err)
	}
}

func TestTruncatedModelFailsClearly(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	var buf bytes.Buffer
	if err := Save(&buf, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, frac := range []int{2, 4, 10} {
		cut := data[:len(data)/frac]
		_, _, err := Load(bytes.NewReader(cut))
		if err == nil || !strings.Contains(err.Error(), "truncated or corrupt") {
			t.Errorf("1/%d truncation: err = %v, want truncation message", frac, err)
		}
	}
}

// TestLoadRejectsV1: files of the checksum-less v1 format fail closed
// in both Load and Verify — without a checksum, nothing would catch a
// truncated or bit-flipped payload.
func TestLoadRejectsV1(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	var buf bytes.Buffer
	if err := Save(&buf, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["format"] = "profitmining-model/v1"
	delete(raw, "checksum")
	v1, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported format") {
		t.Fatalf("v1 file: Load err = %v, want unsupported format", err)
	}
	if err := Verify(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported format") {
		t.Errorf("v1 file: Verify err = %v, want unsupported format", err)
	}
}

// TestV2RequiresChecksum: a v2 file with its checksum stripped is
// rejected — the field is the integrity contract, not an ornament.
func TestV2RequiresChecksum(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	var buf bytes.Buffer
	if err := Save(&buf, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "checksum")
	stripped, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(bytes.NewReader(stripped)); err == nil ||
		!strings.Contains(err.Error(), "missing its checksum") {
		t.Fatalf("checksum-stripped v2: err = %v", err)
	}
}

func TestVerifyFile(t *testing.T) {
	g, spec, rec := buildGrocery(t)
	path := filepath.Join(t.TempDir(), "model.pmm")
	if err := SaveFile(path, g.Dataset.Catalog, spec, rec); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(path); err != nil {
		t.Errorf("VerifyFile on good model: %v", err)
	}
	if err := VerifyFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("VerifyFile on missing file must fail")
	}
}
