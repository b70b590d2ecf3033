package profitmining_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"profitmining"
	"profitmining/internal/arena"
	"profitmining/internal/dataio"
	"profitmining/internal/modelio"
	"profitmining/internal/serve"
)

// TestSealedServingEquivalence is the sealed format's acceptance bar: a
// model saved as v2 JSON and reloaded (which seals it into a fresh
// image in memory), and the same model's sealed file mmap-opened, must
// produce byte-identical /recommend and /recommend/batch responses over
// a large randomized basket stream — 2000 baskets per seed, three
// seeds. This pins that the file format a model arrives in changes the
// cost of loading it, never an answer.
func TestSealedServingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed transcript matrix")
	}
	const numBaskets = 2000
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ds, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
				NumTransactions: 3000,
				NumItems:        60,
				Seed:            seed,
			}, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := profitmining.Build(ds, profitmining.Options{MinSupport: 0.003, MaxBodyLen: 3})
			if err != nil {
				t.Fatal(err)
			}
			compareSealedVsV2(t, ds.Catalog, nil, rec, numBaskets, seed+2)
		})
	}
}

// TestSealedServingEquivalenceWithHierarchy repeats the transcript
// comparison for a model mined over a concept hierarchy, so sealed
// expansion lists (multi-way generalized-sale merges, not just
// singleton expansions) are pinned too.
func TestSealedServingEquivalenceWithHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("hierarchy transcript matrix")
	}
	ds, err := profitmining.GenerateDatasetI(profitmining.QuestConfig{
		NumTransactions: 3000,
		NumItems:        60,
		Seed:            5,
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	spec := dataio.SyntheticHierarchySpec(ds.Catalog, 5)
	hb, err := spec.Builder(ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := profitmining.Build(ds, profitmining.Options{
		MinSupport: 0.003,
		MaxBodyLen: 3,
		Hierarchy:  hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	compareSealedVsV2(t, ds.Catalog, spec, rec, 1000, 7)
}

// compareSealedVsV2 round-trips rec through both formats, serves each
// behind a real HTTP server, and replays an identical request stream
// against both, requiring byte-identical response bodies.
func compareSealedVsV2(t *testing.T, cat *profitmining.Catalog, spec *profitmining.HierarchySpec, rec *profitmining.Recommender, numBaskets int, seed int64) {
	t.Helper()
	dir := t.TempDir()
	v2Path := filepath.Join(dir, "model.pmm")
	sealedPath := filepath.Join(dir, "model.pma")
	if err := profitmining.SaveModel(v2Path, cat, spec, rec); err != nil {
		t.Fatal(err)
	}
	if err := profitmining.SealModel(sealedPath, cat, rec); err != nil {
		t.Fatal(err)
	}

	v2Cat, v2Rec, err := profitmining.LoadModel(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	sCat, sRec, err := modelio.OpenSealed(sealedPath, arena.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sRec.Tree() != nil {
		t.Fatal("OpenSealed returned a recommender with build output")
	}
	defer sRec.Sealed().Arena().Close()
	t.Logf("sealed model mmap-backed: %v", sRec.Sealed().Arena().Mapped())

	v2Srv := httptest.NewServer(serve.New(v2Cat, v2Rec).Handler())
	defer v2Srv.Close()
	sSrv := httptest.NewServer(serve.New(sCat, sRec).Handler())
	defer sSrv.Close()

	rng := rand.New(rand.NewSource(seed))
	var nonTargets []string
	for _, it := range cat.Items() {
		if !it.Target {
			nonTargets = append(nonTargets, it.Name)
		}
	}
	basketJSON := func() string {
		size := 1 + rng.Intn(6)
		sales := make([]string, size)
		for j := range sales {
			name := nonTargets[rng.Intn(len(nonTargets))]
			id, ok := cat.ItemByName(name)
			if !ok {
				t.Fatalf("item %q vanished from the catalog", name)
			}
			promos := cat.Promos(id)
			sales[j] = fmt.Sprintf(`{"item":%q,"promoIx":%d,"qty":%d}`,
				name, rng.Intn(len(promos)), 1+rng.Intn(3))
		}
		return "[" + strings.Join(sales, ",") + "]"
	}

	var batch []string
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		body := `{"baskets":[` + strings.Join(batch, ",") + `]}`
		comparePOST(t, v2Srv.URL, sSrv.URL, "/recommend/batch", body)
		batch = batch[:0]
	}
	for i := 0; i < numBaskets; i++ {
		bk := basketJSON()
		body := `{"basket":` + bk + `}`
		if k := i % 3; k > 0 {
			body = fmt.Sprintf(`{"basket":%s,"k":%d}`, bk, 2*k+1)
		}
		comparePOST(t, v2Srv.URL, sSrv.URL, "/recommend", body)
		batch = append(batch, fmt.Sprintf(`{"basket":%s,"k":%d}`, bk, 1+i%4))
		if len(batch) == 100 {
			flushBatch()
		}
	}
	flushBatch()
}

// comparePOST sends the same request to both servers and requires
// identical status and byte-identical bodies.
func comparePOST(t *testing.T, v2URL, sealedURL, path, body string) {
	t.Helper()
	v2Status, v2Body := post(t, v2URL+path, body)
	sStatus, sBody := post(t, sealedURL+path, body)
	if v2Status != http.StatusOK || sStatus != http.StatusOK {
		t.Fatalf("%s: status v2=%d sealed=%d for %.120s", path, v2Status, sStatus, body)
	}
	if !bytes.Equal(v2Body, sBody) {
		i := 0
		for i < len(v2Body) && i < len(sBody) && v2Body[i] == sBody[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("%s: sealed response diverges from v2 at byte %d\nrequest: %.200s\nv2:     …%.240s\nsealed: …%.240s",
			path, i, body, v2Body[lo:], sBody[lo:])
	}
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}
