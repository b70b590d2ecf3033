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
	"profitmining/internal/dataio"
	"profitmining/internal/serve"
)

// TestSealedServingEquivalence is the sealed format's acceptance bar: a
// model served in process where it was built, and the same model's
// sealed file opened from disk, must produce byte-identical /recommend
// and /recommend/batch responses over a large randomized basket stream
// — 2000 baskets per seed, three seeds. This pins that shipping a model
// as a file changes the cost of loading it, never an answer.
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
			compareBuiltVsSealed(t, ds.Catalog, rec, numBaskets, seed+2)
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
	hb, err := dataio.SyntheticHierarchySpec(ds.Catalog, 5).Builder(ds.Catalog)
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
	compareBuiltVsSealed(t, ds.Catalog, rec, 1000, 7)
}

// compareBuiltVsSealed seals rec to a file, serves the built model and
// the file opened from disk each behind a real HTTP server, and replays
// an identical request stream against both, requiring byte-identical
// response bodies.
func compareBuiltVsSealed(t *testing.T, cat *profitmining.Catalog, rec *profitmining.Recommender, numBaskets int, seed int64) {
	t.Helper()
	sealedPath := filepath.Join(t.TempDir(), "model.pma")
	if err := profitmining.SealModel(sealedPath, cat, rec); err != nil {
		t.Fatal(err)
	}
	sCat, sRec, err := profitmining.LoadModel(sealedPath)
	if err != nil {
		t.Fatal(err)
	}
	if sRec.Tree() != nil {
		t.Fatal("LoadModel returned a recommender with build output")
	}

	builtSrv := httptest.NewServer(serve.New(cat, rec).Handler())
	defer builtSrv.Close()
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
		comparePOST(t, builtSrv.URL, sSrv.URL, "/recommend/batch", body)
		batch = batch[:0]
	}
	for i := 0; i < numBaskets; i++ {
		bk := basketJSON()
		body := `{"basket":` + bk + `}`
		if k := i % 3; k > 0 {
			body = fmt.Sprintf(`{"basket":%s,"k":%d}`, bk, 2*k+1)
		}
		comparePOST(t, builtSrv.URL, sSrv.URL, "/recommend", body)
		batch = append(batch, fmt.Sprintf(`{"basket":%s,"k":%d}`, bk, 1+i%4))
		if len(batch) == 100 {
			flushBatch()
		}
	}
	flushBatch()
}

// comparePOST sends the same request to both servers and requires
// identical status and byte-identical bodies.
func comparePOST(t *testing.T, builtURL, sealedURL, path, body string) {
	t.Helper()
	bStatus, bBody := post(t, builtURL+path, body)
	sStatus, sBody := post(t, sealedURL+path, body)
	if bStatus != http.StatusOK || sStatus != http.StatusOK {
		t.Fatalf("%s: status built=%d sealed=%d for %.120s", path, bStatus, sStatus, body)
	}
	if !bytes.Equal(bBody, sBody) {
		i := 0
		for i < len(bBody) && i < len(sBody) && bBody[i] == sBody[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("%s: sealed response diverges from the built model's at byte %d\nrequest: %.200s\nbuilt:  …%.240s\nsealed: …%.240s",
			path, i, body, bBody[lo:], sBody[lo:])
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
