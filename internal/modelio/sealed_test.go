package modelio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/quest"
	"profitmining/internal/rules"
)

// sealedWorld builds the grocery model (hierarchy, MOA, multi-promo
// items) and reopens its sealed image, returning the built recommender,
// the opened one, probe baskets drawn from the training transactions,
// and the mined rules the model was built from.
func sealedWorld(t testing.TB) (*model.Catalog, *core.Recommender, *core.Recommender, []model.Basket, *mining.Result) {
	t.Helper()
	g := datagen.NewGrocery(800, 11)
	space, err := g.Builder.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(space, g.Dataset.Transactions, mining.Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := core.Build(space, g.Dataset.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Seal(g.Dataset.Catalog, heap)
	if err != nil {
		t.Fatal(err)
	}
	_, sealed, err := LoadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Tree() != nil || sealed.Space() != nil {
		t.Fatal("an opened image carries build output")
	}
	baskets := make([]model.Basket, 0, 256)
	for i := 0; i < len(g.Dataset.Transactions) && len(baskets) < 256; i += 3 {
		if bk := g.Dataset.Transactions[i].NonTarget; len(bk) > 0 {
			baskets = append(baskets, bk)
		}
	}
	return g.Dataset.Catalog, heap, sealed, baskets, mined
}

// wireRef renders the /recommend object of a fired mined rule from build
// output alone: the rule's own measures, string and stable ID, its
// covering-tree lineage and the catalog promo. It is the reference the
// sealed blob and explanation are checked against, independent of the
// image's rule columns.
func wireRef(cat *model.Catalog, built *core.Recommender, rule *rules.Rule) core.WireRecommendation {
	space := built.Space()
	item, promo := space.ItemOf(rule.Head), space.PromoOf(rule.Head)
	id := rules.StableID(space, rule)
	explain := []string{fmt.Sprintf("recommend %s [rule %s]: fired %s", space.Name(rule.Head), id, rule.String(space))}
	var find func(*core.Node) *core.Node
	find = func(n *core.Node) *core.Node {
		if n.Rule == rule {
			return n
		}
		for _, c := range n.Children {
			if f := find(c); f != nil {
				return f
			}
		}
		return nil
	}
	for n := find(built.Tree()); n != nil && n.Parent != nil; n = n.Parent {
		explain = append(explain, "  fallback: "+n.Parent.Rule.String(space))
	}
	p := cat.Promo(promo)
	return core.WireRecommendation{
		Item:    cat.Item(item).Name,
		PromoIx: core.PromoIndex(cat, item, promo),
		Price:   p.Price,
		Cost:    p.Cost,
		Packing: p.Packing,
		Profit:  p.Profit(),
		ProfRe:  rule.ProfRe(),
		Conf:    rule.Conf(),
		RuleID:  id,
		Rule:    rule.String(space),
		Explain: explain,
	}
}

// TestSealedCoreEquivalence pins the opened image to the built model at
// the core API level: same pick, same top-K ranking and rule IDs, and
// for every slot the explanation and wire blob the build output itself
// implies (wireRef), for every probe basket. The reference finds each
// slot's mined rule by the slot's stable ID.
func TestSealedCoreEquivalence(t *testing.T) {
	cat, built, opened, baskets, mined := sealedWorld(t)
	byID := map[string]*rules.Rule{}
	for _, r := range mined.AllRules() {
		byID[rules.StableID(built.Space(), r)] = r
	}
	if got, want := opened.Stats(), built.Stats(); got != want {
		t.Fatalf("opened stats %+v != built stats %+v", got, want)
	}
	// check compares one slot of the built model (b) and the opened
	// image (o) with each other and with the reference.
	check := func(bi, rank int, b, o core.Recommendation) {
		t.Helper()
		if b.Item != o.Item || b.Promo != o.Promo || b.ID != o.ID {
			t.Fatalf("basket %d rank %d: built item %d promo %d [%s], opened item %d promo %d [%s]",
				bi, rank, b.Item, b.Promo, b.ID, o.Item, o.Promo, o.ID)
		}
		rule := byID[b.ID]
		if o.Idx < 0 || b.Idx < 0 || rule == nil {
			t.Fatalf("basket %d rank %d: no rule-table index or no mined rule with ID %s", bi, rank, b.ID)
		}
		ref := wireRef(cat, built, rule)
		want := strings.Join(ref.Explain, "\n")
		for name, got := range map[string][]string{"built": built.Explain(b), "opened": opened.Explain(o)} {
			if g := strings.Join(got, "\n"); g != want {
				t.Fatalf("basket %d rank %d: %s explanation\n%s\nwant\n%s", bi, rank, name, g, want)
			}
		}
		wantBlob, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		blobs := map[string][]byte{
			"served blob": opened.Sealed().Rules().Blob(o.Idx),
			"MarshalWire": core.MarshalWire(cat, built, b),
		}
		for name, got := range blobs {
			if !bytes.Equal(got, wantBlob) {
				t.Fatalf("basket %d rank %d: %s\n%s\nwant\n%s", bi, rank, name, got, wantBlob)
			}
		}
	}
	dst := make([]core.Recommendation, 0, 8)
	for bi, bk := range baskets {
		check(bi, 0, built.Recommend(bk), opened.Recommend(bk))
		bk5 := built.RecommendTopK(bk, 5)
		ok5 := opened.RecommendTopKInto(dst[:0], bk, 5)
		if len(bk5) != len(ok5) {
			t.Fatalf("basket %d: top-5 lengths differ (%d vs %d)", bi, len(bk5), len(ok5))
		}
		for j := range bk5 {
			check(bi, j, bk5[j], ok5[j])
		}
	}
}

// TestSealedRecommendZeroAllocs holds an opened image to the same bar
// as a built model: steady-state Recommend and RecommendTopKInto do not
// allocate. Everything they touch is either a view into the image or
// pooled scratch.
func TestSealedRecommendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	_, _, sealed, baskets, _ := sealedWorld(t)
	dst := make([]core.Recommendation, 0, 8)
	for _, bk := range baskets { // warm scratch pools
		sealed.Recommend(bk)
		dst = sealed.RecommendTopKInto(dst[:0], bk, 5)
	}
	for _, bk := range baskets {
		bk := bk
		if n := testing.AllocsPerRun(500, func() {
			sealed.Recommend(bk)
		}); n != 0 {
			t.Fatalf("sealed Recommend allocates %.1f/op", n)
		}
		if n := testing.AllocsPerRun(500, func() {
			dst = sealed.RecommendTopKInto(dst[:0], bk, 5)
		}); n != 0 {
			t.Fatalf("sealed RecommendTopKInto allocates %.1f/op", n)
		}
	}
}

// TestResealStability pins the sealed image as a stable content
// identity: the same dataset built serially and with four workers seals
// to bit-identical images, and sealing the recommender opened from that
// image returns the same bytes — so the registry and cluster see one
// content hash for one logical model whichever host built it and
// however many hops it took.
func TestResealStability(t *testing.T) {
	ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{
		NumTransactions: 1500,
		NumItems:        50,
		Seed:            3,
	}, 4))
	if err != nil {
		t.Fatal(err)
	}
	cat := ds.Catalog
	hb, err := dataio.SyntheticHierarchySpec(cat, 5).Builder(cat)
	if err != nil {
		t.Fatal(err)
	}
	space, err := hb.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	seal := func(workers int) []byte {
		t.Helper()
		mined, err := mining.Mine(space, ds.Transactions, mining.Options{MinSupport: 0.005, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := core.Build(space, ds.Transactions, mined, core.Config{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		image, err := Seal(cat, rec)
		if err != nil {
			t.Fatal(err)
		}
		return image
	}
	first := seal(1)
	requireEqual := func(what string, a, b []byte) {
		t.Helper()
		if !bytes.Equal(a, b) {
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			t.Fatalf("%s diverges at byte %d of %d (second is %d bytes)", what, i, len(a), len(b))
		}
	}
	requireEqual("the 4-worker image", first, seal(4))

	cat2, opened, err := LoadBytes(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Seal(cat2, opened)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual("the reseal of the opened image", first, second)
	if ContentHash(first) != ContentHash(second) {
		t.Fatal("reseal changed the content hash")
	}
}

// TestSealReturnsBuiltImage: a recommender is sealed where it is built,
// so Seal hands out that very image instead of sealing a second time,
// and refuses a catalog the model was not built over.
func TestSealReturnsBuiltImage(t *testing.T) {
	cat, built, _, _, _ := sealedWorld(t)
	data, err := Seal(cat, built)
	if err != nil {
		t.Fatal(err)
	}
	if img := built.Sealed().Bytes(); len(data) != len(img) || &data[0] != &img[0] {
		t.Fatal("Seal re-sealed a built recommender instead of returning its image")
	}
	if _, err := Seal(model.NewCatalog(), built); err == nil {
		t.Fatal("Seal accepted a foreign catalog")
	}
}
