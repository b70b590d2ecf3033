package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// grocerySpec is the grocery concept hierarchy in serializable form, so
// models built here can be exported.
func grocerySpec() *dataio.HierarchySpec {
	return &dataio.HierarchySpec{
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
}

// buildGroceryModel trains a grocery recommender over the serializable
// hierarchy and returns it with its sealed image, the file the watcher
// loads.
func buildGroceryModel(t *testing.T, n int, seed int64) (*model.Catalog, *core.Recommender, []byte) {
	t.Helper()
	g := datagen.NewGrocery(n, seed)
	hb, err := grocerySpec().Builder(g.Dataset.Catalog)
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
	image, err := modelio.Seal(g.Dataset.Catalog, rec)
	if err != nil {
		t.Fatal(err)
	}
	return g.Dataset.Catalog, rec, image
}

// writeSeq gives every writeModelFile a strictly increasing mtime so the
// watcher's stat probe cannot miss a rewrite on coarse-timestamp
// filesystems.
var writeSeq atomic.Int64

func writeModelFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now().Add(time.Duration(writeSeq.Add(1)) * 10 * time.Millisecond)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestAdminReloadLifecycle drives the full deployment loop over HTTP:
// serve version 1 from a file, swap the file, reload, verify the new
// version serves; then corrupt the file and verify the rejection leaves
// the old version serving.
func TestAdminReloadLifecycle(t *testing.T) {
	_, _, bytesA := buildGroceryModel(t, 800, 3)
	_, recB, bytesB := buildGroceryModel(t, 1000, 7)
	hashB := recB.Sealed().ContentHash()

	path := filepath.Join(t.TempDir(), "model.pma")
	writeModelFile(t, path, bytesA)

	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	watcher, err := registry.NewWatcher(reg, path, time.Second, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := watcher.Check(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistry(reg, watcher.Check, nil).Handler())
	t.Cleanup(ts.Close)

	resp, body := getJSON(t, ts.URL+"/version")
	if resp.StatusCode != http.StatusOK || body["version"].(float64) != 1 {
		t.Fatalf("initial version: %d %v", resp.StatusCode, body)
	}

	// Swap the file on disk and reload through the admin endpoint.
	writeModelFile(t, path, bytesB)
	resp, body = postJSON(t, ts.URL+"/admin/reload", `{}`)
	if resp.StatusCode != http.StatusOK || body["outcome"] != "promoted" {
		t.Fatalf("reload after swap: %d %v", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/version")
	if body["version"].(float64) != 2 || body["hash"] != hashB {
		t.Fatalf("after swap: %v", body)
	}
	if resp.Header.Get("X-Model-Version") != "2" {
		t.Error("version header not updated after swap")
	}

	// Reloading an unchanged file is a no-op.
	resp, body = postJSON(t, ts.URL+"/admin/reload", `{}`)
	if resp.StatusCode != http.StatusOK || body["outcome"] != "unchanged" {
		t.Fatalf("idempotent reload: %d %v", resp.StatusCode, body)
	}

	// A corrupt candidate is rejected and version 2 keeps serving.
	writeModelFile(t, path, []byte(`{"format":"profitmining-model/v2"`))
	resp, body = postJSON(t, ts.URL+"/admin/reload", `{}`)
	if resp.StatusCode != http.StatusUnprocessableEntity || body["outcome"] != "rejected" {
		t.Fatalf("reload of corrupt file: %d %v", resp.StatusCode, body)
	}
	if body["error"] == "" {
		t.Error("rejection must carry the validation error")
	}
	_, body = getJSON(t, ts.URL+"/version")
	if body["version"].(float64) != 2 || body["hash"] != hashB {
		t.Fatalf("corrupt candidate disturbed serving: %v", body)
	}
	if resp, _ := postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`); resp.StatusCode != http.StatusOK {
		t.Errorf("recommend after rejection = %d, want 200", resp.StatusCode)
	}
}

// TestShadowPromotionOverHTTP: with shadow fraction 1 and a 2-sample
// floor, a staged candidate is scored on live /recommend traffic and
// auto-promotes after the second request.
func TestShadowPromotionOverHTTP(t *testing.T) {
	catA, recA, _ := buildGroceryModel(t, 800, 3)
	catB, recB, _ := buildGroceryModel(t, 1000, 7)

	reg, err := registry.New(registry.Options{ShadowFraction: 1, ShadowMinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Submit(catA, recA, "A", ""); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := reg.Submit(catB, recB, "B", ""); err != nil || outcome != registry.Staged {
		t.Fatalf("outcome %v, err %v", outcome, err)
	}
	ts := httptest.NewServer(NewRegistry(reg, nil, nil).Handler())
	t.Cleanup(ts.Close)

	// While staged, /version reports both sides.
	_, body := getJSON(t, ts.URL+"/version")
	if body["version"].(float64) != 1 {
		t.Fatalf("active version = %v, want 1", body["version"])
	}
	staged := body["staged"].(map[string]any)
	if staged["version"].(float64) != 2 || staged["hash"] != recB.Sealed().ContentHash() {
		t.Fatalf("staged = %v", staged)
	}

	// First request: served by v1, shadow sample 1 of 2.
	resp, body := postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	if resp.StatusCode != http.StatusOK || body["modelVersion"].(float64) != 1 {
		t.Fatalf("first request: %d %v", resp.StatusCode, body["modelVersion"])
	}
	_, body = getJSON(t, ts.URL+"/version")
	shadow := body["staged"].(map[string]any)["shadow"].(map[string]any)
	if shadow["sampled"].(float64) != 1 {
		t.Fatalf("shadow stats after one request: %v", shadow)
	}

	// Second request crosses the floor: the candidate auto-promotes.
	postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	_, body = getJSON(t, ts.URL+"/version")
	if body["version"].(float64) != 2 {
		t.Fatalf("candidate not promoted after sample floor: %v", body)
	}
	if _, stillStaged := body["staged"]; stillStaged {
		t.Error("staging survived promotion")
	}
	resp, body = postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	if resp.StatusCode != http.StatusOK || body["modelVersion"].(float64) != 2 {
		t.Errorf("post-promotion request: %d %v", resp.StatusCode, body["modelVersion"])
	}
}
