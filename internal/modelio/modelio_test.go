package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profitmining/internal/arena"
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
func buildGrocery(t testing.TB) (*datagen.Grocery, *dataio.HierarchySpec, *core.Recommender) {
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

// sealGrocery builds the grocery model and returns its sealed image.
func sealGrocery(t testing.TB) (*datagen.Grocery, *core.Recommender, []byte) {
	t.Helper()
	g, _, rec := buildGrocery(t)
	image, err := Seal(g.Dataset.Catalog, rec)
	if err != nil {
		t.Fatal(err)
	}
	return g, rec, image
}

// TestModelRoundTrip: the image a model is sealed into carries its
// catalog, build statistics and every final rule's measures.
func TestModelRoundTrip(t *testing.T) {
	g, rec, image := sealGrocery(t)
	cat2, rec2, err := LoadBytes(image)
	if err != nil {
		t.Fatal(err)
	}

	cat := g.Dataset.Catalog
	if cat2.NumItems() != cat.NumItems() || cat2.NumPromos() != cat.NumPromos() {
		t.Fatal("catalog changed in round trip")
	}
	for i := 1; i <= cat.NumItems(); i++ {
		a, b := cat.Item(model.ItemID(i)), cat2.Item(model.ItemID(i))
		if a.Name != b.Name || a.Target != b.Target {
			t.Fatalf("item %d: %+v vs %+v", i, a, b)
		}
	}
	if rec2.Stats() != rec.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", rec2.Stats(), rec.Stats())
	}

	// Every final rule survives with identical measures, in rank order.
	rt := rec2.Sealed().Rules()
	for i, a := range rec.Rules() {
		ix := int32(i)
		if int(rt.BodyCount[ix]) != a.BodyCount || int(rt.Hits[ix]) != a.HitCount ||
			math.Abs(rt.Profit[ix]-a.Profit) > 1e-9 || int(rt.Order[ix]) != a.Order ||
			int(rt.BodyLen(ix)) != len(a.Body) {
			t.Fatalf("rule %d changed: %s vs %s", i, a.String(rec.Space()), rt.String(ix))
		}
	}
}

// TestLoadedModelRecommendsIdentically is the behavioural equivalence:
// the loaded image must answer every basket exactly like the model
// built in process.
func TestLoadedModelRecommendsIdentically(t *testing.T) {
	g, rec, image := sealGrocery(t)
	cat2, rec2, err := LoadBytes(image)
	if err != nil {
		t.Fatal(err)
	}

	for i := range g.Dataset.Transactions {
		basket := g.Dataset.Transactions[i].NonTarget
		a := rec.Recommend(basket)
		b := rec2.Recommend(basket)
		if a.Item != b.Item || a.Promo != b.Promo || a.ID != b.ID {
			t.Fatalf("basket %d: built %s [%s], loaded %s [%s]", i,
				g.Dataset.Catalog.Item(a.Item).Name, a.ID, cat2.Item(b.Item).Name, b.ID)
		}
		ta := rec.RecommendTopK(basket, 2)
		tb := rec2.RecommendTopK(basket, 2)
		if len(ta) != len(tb) {
			t.Fatalf("basket %d: TopK sizes %d vs %d", i, len(ta), len(tb))
		}
		for j := range ta {
			if ta[j].ID != tb[j].ID {
				t.Fatalf("basket %d rank %d: rule %s vs %s", i, j, ta[j].ID, tb[j].ID)
			}
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
	g, _, rec := buildGrocery(t)
	path := filepath.Join(t.TempDir(), "model.pma")
	if err := SealFile(path, g.Dataset.Catalog, rec); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Stats() != rec.Stats() || rec2.Sealed().ContentHash() != rec.Sealed().ContentHash() {
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
	image, err := Seal(ds.Catalog, rec)
	if err != nil {
		t.Fatal(err)
	}
	_, rec2, err := LoadBytes(image)
	if err != nil {
		t.Fatal(err)
	}
	basket := ds.Transactions[0].NonTarget
	if rec.Recommend(basket).ID != rec2.Recommend(basket).ID {
		t.Error("flat model changed behaviour in round trip")
	}
}

// restamp re-stamps the header digest of a patched image, so only the
// structural checks can catch the patch.
func restamp(image []byte) []byte {
	sum := sha256.Sum256(image[arena.HeaderPrefixLen:])
	copy(image[16:arena.HeaderPrefixLen], sum[:])
	return image
}

// patchI32 returns a re-stamped copy of image with entry ix of the
// int32 section sec set to v.
func patchI32(image []byte, sec, ix int, v int32) []byte {
	img := append([]byte(nil), image...)
	off := binary.LittleEndian.Uint64(img[64+16*sec:])
	binary.LittleEndian.PutUint32(img[int(off)+4*ix:], uint32(v))
	return restamp(img)
}

// TestLoadErrors: LoadBytes refuses anything that is not a well-formed
// sealed image, with an error and never a panic — including images
// whose interior offsets, trie blocks or rule indices point outside
// their columns under a consistent checksum. Each patched image below
// opened without complaint and panicked on first use before Verify
// scanned the interior.
func TestLoadErrors(t *testing.T) {
	_, rec, image := sealGrocery(t)
	meta, alt := rec.Sealed().Meta(), rec.Sealed().Alternates()
	if len(alt.Rules) == 0 || meta.NumRules < 3 {
		t.Fatal("test model needs alternates and at least three rules")
	}
	// A re-stamped but otherwise untouched image loads: the patches
	// below fail on their content, not on the digest.
	if _, _, err := LoadBytes(restamp(append([]byte(nil), image...))); err != nil {
		t.Fatalf("re-stamped pristine image: %v", err)
	}
	for _, tc := range badImages(rec, image) {
		_, _, err := LoadBytes(tc.data)
		if err == nil {
			t.Errorf("%s: loaded", tc.name)
		} else if strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: failed on the digest, not the content: %v", tc.name, err)
		}
	}
}

// badImage is a named input LoadBytes must refuse.
type badImage struct {
	name string
	data []byte
}

// badImages returns non-images and patched copies of rec's sealed image
// whose interior points outside its columns under a re-stamped digest.
func badImages(rec *core.Recommender, image []byte) []badImage {
	meta, trie, alt := rec.Sealed().Meta(), rec.Sealed().Trie(), rec.Sealed().Alternates()
	return []badImage{
		{"not an image", []byte("not a model")},
		{"header only", image[:arena.HeaderPrefixLen]},
		{"matcher ChildHi[0] past the nodes", patchI32(image, arena.SecTrieChildHi, 0, int32(len(trie.Item)+1))},
		{"matcher RuleHi[0] past the rule list", patchI32(image, arena.SecTrieRuleHi, 0, int32(len(trie.Rules)+1))},
		{"matcher Rules[0] past the rule table", patchI32(image, arena.SecTrieRules, 0, int32(meta.NumRules))},
		{"alternates Rules[0] past the rule table", patchI32(image, arena.SecAltRules, 0, int32(meta.NumRules))},
		{"BodyOff[1] past the body pool", patchI32(image, arena.SecRuleBodyOff, 1, 1<<30)},
		{"string offset [1] past the string pool", patchI32(image, arena.SecRuleStrOff, 1, 1<<30)},
		{"alternate's head item outside the catalog", patchI32(image, arena.SecRuleHeadItem, int(alt.Rules[len(alt.Rules)-1]), int32(meta.NumItems+1))},
	}
}

// TestChecksumDetectsBitFlip is the corruption regression: a single bit
// flipped inside the payload — structurally still a valid image — must
// be caught by the image's checksum instead of serving a silently wrong
// model, from bytes and from a file.
func TestChecksumDetectsBitFlip(t *testing.T) {
	_, _, image := sealGrocery(t)
	flipped := append([]byte(nil), image...)
	flipped[len(flipped)-10] ^= 0x01

	if _, _, err := LoadBytes(flipped); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bit-flipped image: err = %v, want checksum mismatch", err)
	}
	path := filepath.Join(t.TempDir(), "model.pma")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("VerifyFile on bit-flipped image: err = %v", err)
	}
	if _, _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("LoadFile on bit-flipped image: err = %v", err)
	}

	// The pristine bytes still load and verify.
	if _, _, err := LoadBytes(image); err != nil {
		t.Fatalf("pristine image: %v", err)
	}
}

func TestTruncatedModelFailsClearly(t *testing.T) {
	_, _, image := sealGrocery(t)
	for _, frac := range []int{2, 4, 10} {
		cut := image[:len(image)/frac]
		_, _, err := LoadBytes(cut)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("1/%d truncation: err = %v, want truncation message", frac, err)
		}
	}
}

// TestLoadRejectsV1: JSON model files — the old checksum-less v1 format
// as much as today's v2 export — fail closed at every modelio entry
// point; only a sealed image loads.
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
	dir := t.TempDir()
	for name, data := range map[string][]byte{"v1": v1, "v2": buf.Bytes()} {
		if _, _, err := LoadBytes(data); err == nil {
			t.Errorf("%s JSON: LoadBytes accepted it", name)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadFile(path); err == nil {
			t.Errorf("%s JSON: LoadFile accepted it", name)
		}
		if err := VerifyFile(path); err == nil {
			t.Errorf("%s JSON: VerifyFile accepted it", name)
		}
	}
}

func TestVerifyFile(t *testing.T) {
	g, _, rec := buildGrocery(t)
	path := filepath.Join(t.TempDir(), "model.pma")
	if err := SealFile(path, g.Dataset.Catalog, rec); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(path); err != nil {
		t.Errorf("VerifyFile on good model: %v", err)
	}
	if err := VerifyFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("VerifyFile on missing file must fail")
	}
}
