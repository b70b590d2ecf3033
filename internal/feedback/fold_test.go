package feedback

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func mustPayload(t *testing.T, rec record) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFoldMatchesCollectorStats pins the fold to the collector's own
// accounting: folding the records a collector journaled reproduces the
// collector's Stats bit-for-bit.
func TestFoldMatchesCollectorStats(t *testing.T) {
	dir := t.TempDir()
	c, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(1, "h1", []RuleProjection{
		{ID: "ra", ProfRe: 2.5, Price: 4, Cost: 1},
		{ID: "rb", ProfRe: 1.0, Price: 2, Cost: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := "ra"
		if i%3 == 0 {
			id = "rb"
		}
		if _, err := c.Record(Outcome{RuleID: id, ModelVersion: 1, Bought: i%2 == 0, Qty: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Stats(-1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	f := NewFold(DriftConfig{})
	if _, err := Replay(dir, func(p []byte) error { return f.Apply("n1", p) }); err != nil {
		t.Fatal(err)
	}
	got := f.Stats(-1)
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Fatalf("fold stats diverge from collector:\n got %s\nwant %s", gj, wj)
	}
	if f.Outcomes() != 40 {
		t.Fatalf("fold counted %d outcomes, want 40", f.Outcomes())
	}
}

// TestFoldSameKeyRegistrationNoReset pins the cluster semantics: a
// second registration of the same content key (another replica serving
// the same model) must not reset the detector, a higher-versioned new
// key must, and outcomes from a node still serving the old key must
// not feed the new episode's detector.
func TestFoldSameKeyRegistrationNoReset(t *testing.T) {
	f := NewFold(DriftConfig{MinObservations: 1, Lambda: 1, Delta: 0.001})
	reg := func(node, key string, version int) {
		if err := f.Apply(node, mustPayload(t, record{Kind: "model", Version: version, Key: key, Last: true})); err != nil {
			t.Fatal(err)
		}
	}
	outcomes := func(node string, n int, projected, realized float64) {
		for i := 0; i < n; i++ {
			if err := f.Apply(node, mustPayload(t, record{Kind: "outcome", RuleID: "ra", Projected: projected, Realized: realized})); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg("n1", "k1", 1)
	outcomes("n1", 10, 1, 1) // calibrated: shortfall 0
	outcomes("n1", 10, 5, 0) // diverging: the shortfall mean shifts up
	if !f.Drifting() {
		t.Fatal("sustained shortfall did not trip the fold's detector")
	}
	reg("n2", "k1", 1) // second replica registering the same model: no reset
	if !f.Drifting() {
		t.Fatal("same-key registration reset the cluster drift detector")
	}
	reg("n1", "k2", 2) // genuinely new model content: reset
	if f.Drifting() {
		t.Fatal("new-key registration did not reset the detector")
	}
	if f.ModelKey() != "k2" {
		t.Fatalf("model key %q, want k2", f.ModelKey())
	}
	// n2 has not synced to k2 yet: its stale stream keeps counting in
	// the aggregates but must not trip the fresh episode's detector.
	before := f.Outcomes()
	outcomes("n2", 10, 5, 0)
	if f.Drifting() {
		t.Fatal("a stale node's pre-refresh outcomes tripped the new episode")
	}
	if f.Outcomes() != before+10 {
		t.Fatal("gated outcomes vanished from the aggregates")
	}
	// Once n2 registers the episode key, its outcomes count again: a
	// calibrated baseline followed by a shortfall shift trips the fresh
	// episode's detector.
	reg("n2", "k2", 2)
	outcomes("n2", 10, 1, 1)
	outcomes("n2", 10, 5, 0)
	if !f.Drifting() {
		t.Fatal("synced node's diverging outcomes did not trip the detector")
	}
}

// TestDecodeRecordIsStrict: a record the fold reads only part of must
// still decode whole — a registration's projections included — and an
// unknown kind is refused, so a spool that decodes at admission refuses
// exactly what Apply refuses.
func TestDecodeRecordIsStrict(t *testing.T) {
	for _, payload := range []string{
		`{"kind":"bogus"}`,
		`{"kind":"outcome","qty":"one"}`,
		`{"kind":"model","rules":[{"id":"ra","profRe":"high"}],"key":"k","last":true}`,
		`{"kind":"model","rules":[{"id":"ra"}`,
	} {
		if _, err := DecodeRecord([]byte(payload)); err == nil {
			t.Errorf("DecodeRecord accepted %s", payload)
		}
		if err := NewFold(DriftConfig{}).Apply("n1", []byte(payload)); err == nil {
			t.Errorf("Apply accepted %s", payload)
		}
	}
	for _, payload := range []string{
		`{"kind":"outcome","ruleID":"ra","bought":true,"qty":1,"projected":2,"realized":1}`,
		`{"kind":"model","version":2,"rules":[{"id":"ra","profRe":1.5}],"key":"k","last":true}`,
	} {
		if _, err := DecodeRecord([]byte(payload)); err != nil {
			t.Errorf("DecodeRecord refused %s: %v", payload, err)
		}
	}
}

// TestRotateSealsLiveSegment pins the shipper's building block: Rotate
// seals a non-empty live segment (making it immutable and listable),
// no-ops on an empty one, and ParseSegment strictly validates the
// sealed image.
func TestRotateSealsLiveSegment(t *testing.T) {
	dir := t.TempDir()
	c, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Empty live segment: nothing to seal.
	if err := c.Rotate(); err != nil {
		t.Fatal(err)
	}
	if sealed, err := SealedSegmentPaths(dir); err != nil || len(sealed) != 0 {
		t.Fatalf("rotate of empty segment sealed %v (err %v)", sealed, err)
	}

	if err := c.RegisterModel(1, "h1", []RuleProjection{{ID: "ra", ProfRe: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Record(Outcome{RuleID: "ra", Bought: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Rotate(); err != nil {
		t.Fatal(err)
	}
	sealed, err := SealedSegmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 1 {
		t.Fatalf("want 1 sealed segment, got %v", sealed)
	}
	data, err := os.ReadFile(sealed[0])
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := ParseSegment(data, func([]byte) error { n++; return nil }); err != nil {
		t.Fatalf("sealed segment does not parse: %v", err)
	}
	if n != 2 { // one model record, one outcome
		t.Fatalf("sealed segment holds %d records, want 2", n)
	}
	// Bit-flip inside the payload area: strict parse must fail.
	data[len(data)-1] ^= 0x01
	if err := ParseSegment(data, func([]byte) error { return nil }); err == nil {
		t.Fatal("ParseSegment accepted a corrupted segment")
	}
	// Appends keep working after rotation, into the fresh live segment.
	if _, err := c.Record(Outcome{RuleID: "ra"}); err != nil {
		t.Fatal(err)
	}
	if filepath.Base(sealed[0]) != "outcomes-00000001.wal" {
		t.Fatalf("unexpected sealed segment name %s", sealed[0])
	}
}
