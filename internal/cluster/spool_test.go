package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"profitmining/internal/feedback"
	"profitmining/internal/registry"
)

// sealedSegments returns the sealed segments of a closed WAL directory,
// ascending, with their sequence numbers.
func sealedSegments(t testing.TB, dir string) (segs [][]byte, seqs []int) {
	t.Helper()
	paths, err := feedback.SealedSegmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := feedback.SegmentSeq(p)
		if err != nil {
			t.Fatal(err)
		}
		segs, seqs = append(segs, data), append(seqs, seq)
	}
	return segs, seqs
}

// statsJSON is the byte form two folds are compared in.
func statsJSON(t testing.TB, st feedback.Stats) []byte {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSpoolAdmissionFailsClosed: a segment whose frames and CRCs are
// valid but which holds an undecodable record is refused before
// anything is stored, folded or spooled, so a re-ship is refused again
// rather than acked as already shipped; and a spool directory holding
// such a segment does not open.
func TestSpoolAdmissionFailsClosed(t *testing.T) {
	walDir := t.TempDir()
	w, err := feedback.OpenWAL(walDir, feedback.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		`{"kind":"outcome","seq":1,"ruleID":"ra","bought":true,"qty":1,"projected":1,"realized":1}`,
		`{"kind":"bogus"}`,
	} {
		if err := w.Append([]byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, seqs := sealedSegments(t, walDir)
	if len(segs) != 1 {
		t.Fatalf("sealed %d segments, want 1", len(segs))
	}
	bad, seq := segs[0], seqs[0]

	spoolDir := t.TempDir()
	s, err := NewSpool(spoolDir, feedback.DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := statsJSON(t, s.Stats(-1))
	for attempt := 1; attempt <= 2; attempt++ {
		if _, _, err := s.Ingest("node1", seq, registry.HashBytes(bad), bad); err == nil {
			t.Fatalf("ingest %d admitted a segment holding an unknown record kind", attempt)
		}
		if s.Segments() != 0 || s.Outcomes() != 0 {
			t.Fatalf("after refused ingest %d the spool holds %d segments and %d outcomes", attempt, s.Segments(), s.Outcomes())
		}
		if got := statsJSON(t, s.Stats(-1)); !bytes.Equal(got, want) {
			t.Fatalf("refused ingest %d changed the stats:\n got %s\nwant %s", attempt, got, want)
		}
	}
	if entries, err := os.ReadDir(spoolDir); err != nil || len(entries) != 0 {
		t.Fatalf("refused segment left %d files in the spool dir (err %v)", len(entries), err)
	}

	// A spool directory that already holds such a segment must not open.
	if err := os.WriteFile(filepath.Join(spoolDir, SpoolKey("node1", seq)+".walseg"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpool(spoolDir, feedback.DriftConfig{}); err == nil {
		t.Fatal("NewSpool opened a spooled segment that does not decode")
	}
}

// TestSpoolFoldOrder pins the cluster fold's total order: three nodes'
// segments, ingested in ascending, descending and seeded random arrival
// orders, must fold to the byte-identical Stats of a reference Fold fed
// the payloads in (node key, sequence, record) order. Realized profits
// span many magnitudes, so their float sums, and the drift detector,
// depend on the order they are added in; the test checks that a
// reversed fold does differ, so an arrival-order fold cannot pass.
func TestSpoolFoldOrder(t *testing.T) {
	drift := feedback.DriftConfig{MinObservations: 5, Lambda: 1e9, Delta: 0.01}
	rules := []feedback.RuleProjection{
		{ID: "ra", ProfRe: 1.5, Price: 3, Cost: 1},
		{ID: "rb", ProfRe: 40, Price: 90, Cost: 20},
		{ID: "rc", ProfRe: 0.25, Price: 1, Cost: 0.5},
	}
	type shipped struct {
		node string
		seq  int
		data []byte
	}
	var all []shipped
	for n, node := range []string{"http://replica-a", "http://replica-b", "http://replica-c"} {
		dir := t.TempDir()
		c, _, err := feedback.Open(feedback.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterModel(1, "h1", rules); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n + 1)))
		for seg := 0; seg < 4; seg++ {
			for i := 0; i < 12; i++ {
				r := rules[rng.Intn(len(rules))]
				// Paid prices from a hundredth to a million over cost.
				paid := r.Cost + rng.Float64()*math.Pow(10, float64(rng.Intn(9)-2))
				if _, err := c.Record(feedback.Outcome{RuleID: r.ID, ModelVersion: 1, Bought: rng.Intn(4) > 0, Qty: float64(1 + rng.Intn(3)), PaidPrice: paid}); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		segs, seqs := sealedSegments(t, dir)
		if len(segs) != 4 {
			t.Fatalf("node %d sealed %d segments, want 4", n, len(segs))
		}
		for i := range segs {
			all = append(all, shipped{node, seqs[i], segs[i]})
		}
	}

	// The reference: (hashed node, sequence) ascending, records in order.
	sort.Slice(all, func(i, j int) bool {
		hi, hj := registry.HashBytes([]byte(all[i].node)), registry.HashBytes([]byte(all[j].node))
		if hi != hj {
			return hi < hj
		}
		return all[i].seq < all[j].seq
	})
	fold := func(order []shipped) []byte {
		f := feedback.NewFold(drift)
		for _, sh := range order {
			node := registry.HashBytes([]byte(sh.node))
			if err := feedback.ParseSegment(sh.data, func(p []byte) error { return f.Apply(node, p) }); err != nil {
				t.Fatal(err)
			}
		}
		return statsJSON(t, f.Stats(-1))
	}
	want := fold(all)
	reversed := make([]shipped, len(all))
	for i, sh := range all {
		reversed[len(all)-1-i] = sh
	}
	if bytes.Equal(fold(reversed), want) {
		t.Fatal("the test's outcomes fold to the same stats in reverse order; they cannot tell orders apart")
	}

	orders := map[string][]int{"ascending": nil, "descending": nil}
	for i := range all {
		orders["ascending"] = append(orders["ascending"], i)
		orders["descending"] = append(orders["descending"], len(all)-1-i)
	}
	for seed := int64(1); seed <= 6; seed++ {
		orders[fmt.Sprintf("random seed %d", seed)] = rand.New(rand.NewSource(seed)).Perm(len(all))
	}
	for name, order := range orders {
		s, err := NewSpool("", drift)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			sh := all[i]
			if _, added, err := s.Ingest(sh.node, sh.seq, registry.HashBytes(sh.data), sh.data); err != nil || !added {
				t.Fatalf("%s: ingesting %s segment %d: added %v, err %v", name, sh.node, sh.seq, added, err)
			}
		}
		if got := statsJSON(t, s.Stats(-1)); !bytes.Equal(got, want) {
			t.Errorf("%s arrival order folds differently from (node key, sequence, record) order:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestSpoolIngestCostFlat: admitting a segment costs O(segment), not
// O(shipped history). Two nodes ship alternately, each segment carrying
// a model registration, ordered so that every second ingest sorts
// before the fold's last key and forces a refold. The bytes the 40th
// ingest allocates may be at most twice the 2nd's: a refold that
// re-decoded every spooled segment would allocate twenty times as much.
// Then one node re-ships its whole backlog, as a restarted replica
// does: each re-ship is a no-op settled by the segment's hash, so the
// backlog may allocate less than its own bytes, which decoding its
// registrations again would exceed.
func TestSpoolIngestCostFlat(t *testing.T) {
	const perNode = 20
	dir := t.TempDir()
	c, _, err := feedback.Open(feedback.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rules := make([]feedback.RuleProjection, 400)
	for v := 1; v <= perNode; v++ {
		for i := range rules {
			rules[i] = feedback.RuleProjection{ID: fmt.Sprintf("rule-%04d", i), ProfRe: float64(v*1000 + i), Conf: 0.5, Price: 10, Cost: 4}
		}
		if err := c.RegisterModel(v, fmt.Sprintf("h%d", v), rules); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Record(feedback.Outcome{RuleID: "rule-0001", ModelVersion: v, Bought: true}); err != nil {
			t.Fatal(err)
		}
		if err := c.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	segs, seqs := sealedSegments(t, dir)
	if len(segs) != perNode {
		t.Fatalf("sealed %d segments, want %d", len(segs), perNode)
	}

	// first ships first; second's node key sorts before first's, so each
	// of its segments lands before the fold's last key.
	first, second := "http://replica-a", "http://replica-b"
	if SpoolKey(first, 1) < SpoolKey(second, 1) {
		first, second = second, first
	}
	s, err := NewSpool("", feedback.DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var allocs []uint64
	for i := range segs {
		for _, node := range []string{first, second} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, added, err := s.Ingest(node, seqs[i], registry.HashBytes(segs[i]), segs[i])
			runtime.ReadMemStats(&after)
			if err != nil || !added {
				t.Fatalf("ingesting %s segment %d: added %v, err %v", node, seqs[i], added, err)
			}
			allocs = append(allocs, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if s.Outcomes() != 2*perNode {
		t.Fatalf("spool folded %d outcomes, want %d", s.Outcomes(), 2*perNode)
	}
	second2, fortieth := allocs[1], allocs[2*perNode-1]
	t.Logf("ingest 2 allocated %d B, ingest %d allocated %d B", second2, 2*perNode, fortieth)
	if fortieth > 2*second2 {
		t.Fatalf("ingest %d allocated %d B, more than twice ingest 2's %d B: admission cost grows with the shipped history",
			2*perNode, fortieth, second2)
	}

	var backlog int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range segs {
		_, added, err := s.Ingest(first, seqs[i], registry.HashBytes(segs[i]), segs[i])
		if err != nil || added {
			t.Fatalf("re-shipping %s segment %d: added %v, err %v", first, seqs[i], added, err)
		}
		backlog += len(segs[i])
	}
	runtime.ReadMemStats(&after)
	t.Logf("re-shipping a %d B backlog allocated %d B", backlog, after.TotalAlloc-before.TotalAlloc)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(backlog) {
		t.Fatalf("re-shipping a %d B backlog allocated %d B: a re-ship decodes what its hash already settles", backlog, got)
	}
}

// restamp rewrites the CRC-32C of every whole frame of a WAL segment
// image (an 8-byte magic, then frames of a little-endian uint32 length,
// a uint32 checksum and the payload), so a fuzzed payload reaches the
// record decoder instead of failing its frame's checksum.
func restamp(seg []byte) []byte {
	const magic, header = 8, 8
	out := bytes.Clone(seg)
	table := crc32.MakeTable(crc32.Castagnoli)
	for off := magic; off+header <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n == 0 || n > len(out)-off-header {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.Checksum(out[off+header:off+header+n], table))
		off += header + n
	}
	return out
}

// FuzzSpoolIngest: admission of untrusted segment bytes never panics;
// a refused segment leaves the spool exactly as it was; and an admitted
// one folds to what a reference Fold makes of its records. Inputs with
// restamped set get valid frame checksums, so mutations reach the
// record decoder. Each input is ingested beside a base segment whose
// node key sorts before it and, in a second spool, after it, so both
// fold paths (extend in place, refold) see it. The seeds are a real
// sealed segment (a model registration and outcomes), its truncations
// and bit flips.
func FuzzSpoolIngest(f *testing.F) {
	dir := f.TempDir()
	c, _, err := feedback.Open(feedback.Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if err := c.RegisterModel(1, "h1", []feedback.RuleProjection{
		{ID: "ra", ProfRe: 1, Conf: 0.5, Price: 2, Cost: 1},
		{ID: "rb", ProfRe: 5, Conf: 0.25, Price: 9, Cost: 1},
	}); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Record(feedback.Outcome{RuleID: "ra", ModelVersion: 1, Bought: i%2 == 0, Qty: 1}); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Rotate(); err != nil {
		f.Fatal(err)
	}
	if _, err := c.Record(feedback.Outcome{RuleID: "rb", ModelVersion: 1, Bought: true}); err != nil {
		f.Fatal(err)
	}
	if err := c.Rotate(); err != nil {
		f.Fatal(err)
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _ := sealedSegments(f, dir)
	if len(segs) != 2 {
		f.Fatalf("sealed %d segments, want 2", len(segs))
	}
	seed, base := segs[0], segs[1]

	const fuzzNode = "http://replica-fuzz"
	var before, after string // base nodes whose keys sort before and after fuzzNode's
	for i := 0; before == "" || after == ""; i++ {
		node := fmt.Sprintf("http://replica-%d", i)
		if SpoolKey(node, 1) < SpoolKey(fuzzNode, 1) {
			before = node
		} else {
			after = node
		}
	}
	drift := feedback.DriftConfig{MinObservations: 1, Lambda: 1, Delta: 0.01}

	f.Add(seed, false)
	for _, n := range []int{0, 7, 8, 12, 16, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n], false)
	}
	for _, i := range []int{3, 8, 12, 20, len(seed) / 3, len(seed) / 2, len(seed) - 2} {
		flipped := bytes.Clone(seed)
		flipped[i] ^= 0x04
		f.Add(flipped, false)
		f.Add(flipped, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, restamped bool) {
		if restamped {
			data = restamp(data)
		}
		for _, baseNode := range []string{before, after} {
			s, err := NewSpool("", drift)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Ingest(baseNode, 1, registry.HashBytes(base), base); err != nil {
				t.Fatal(err)
			}
			segments, outcomes, stats := s.Segments(), s.Outcomes(), statsJSON(t, s.Stats(-1))
			if _, _, err := s.Ingest(fuzzNode, 1, registry.HashBytes(data), data); err != nil {
				if s.Segments() != segments || s.Outcomes() != outcomes {
					t.Fatalf("refused segment changed the spool: %d segments / %d outcomes, was %d / %d",
						s.Segments(), s.Outcomes(), segments, outcomes)
				}
				if got := statsJSON(t, s.Stats(-1)); !bytes.Equal(got, stats) {
					t.Fatalf("refused segment changed the stats:\n got %s\nwant %s", got, stats)
				}
				continue
			}
			nodes, order := []string{baseNode, fuzzNode}, [][]byte{base, data}
			if baseNode == after {
				nodes[0], nodes[1], order[0], order[1] = nodes[1], nodes[0], order[1], order[0]
			}
			ref := feedback.NewFold(drift)
			for i, seg := range order {
				node := registry.HashBytes([]byte(nodes[i]))
				if err := feedback.ParseSegment(seg, func(p []byte) error { return ref.Apply(node, p) }); err != nil {
					t.Fatalf("the spool admitted a segment whose records do not fold: %v", err)
				}
			}
			if got, want := statsJSON(t, s.Stats(-1)), statsJSON(t, ref.Stats(-1)); s.Segments() != segments+1 || !bytes.Equal(got, want) {
				t.Fatalf("admitted segment: %d segments (want %d), stats\n got %s\nwant %s", s.Segments(), segments+1, got, want)
			}
		}
	})
}
