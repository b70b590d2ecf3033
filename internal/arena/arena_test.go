package arena_test

import (
	"encoding/binary"
	"testing"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/modelio"
)

// sealedGrocery builds the deterministic grocery model once and returns
// its sealed image. The grocery world has a real concept hierarchy and
// multi-promo items, so every section of the format is non-trivially
// populated.
func sealedGrocery(t testing.TB) ([]byte, *core.Recommender) {
	t.Helper()
	g := datagen.NewGrocery(500, 7)
	space, err := g.Builder.Compile(hierarchy.Options{MOA: true})
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
	data, err := modelio.Seal(g.Dataset.Catalog, rec)
	if err != nil {
		t.Fatal(err)
	}
	return data, rec
}

func TestSealedRoundTripMeta(t *testing.T) {
	data, rec := sealedGrocery(t)
	if !arena.SniffMagic(data) {
		t.Fatal("sealed image does not sniff as sealed")
	}
	m, err := arena.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	meta := m.Meta()
	if meta.NumFinal != st.RulesFinal || meta.Generated != st.RulesGenerated ||
		meta.NonDominated != st.RulesNonDominated || meta.TreeDepth != st.TreeDepth {
		t.Errorf("meta %+v does not reproduce build stats %+v", meta, st)
	}
	if rt := m.Rules(); rt.N() < meta.NumFinal || meta.NumFinal == 0 {
		t.Errorf("rule table holds %d rules, meta claims %d final", m.Rules().N(), meta.NumFinal)
	}
	hash, err := arena.HeaderHash(data[:arena.HeaderPrefixLen])
	if err != nil {
		t.Fatal(err)
	}
	if hash != m.ContentHash() {
		t.Errorf("HeaderHash %s != ContentHash %s", hash, m.ContentHash())
	}
	cat, err := m.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumItems() != meta.NumItems || cat.NumPromos() != meta.NumPromos {
		t.Errorf("catalog materialized %d items/%d promos, meta says %d/%d",
			cat.NumItems(), cat.NumPromos(), meta.NumItems, meta.NumPromos)
	}
}

// TestBitFlipEverySection flips one bit in the middle of every
// non-empty section and requires the file to fail loudly: either Open
// rejects the structure, or Open succeeds and Verify rejects the
// checksum. A flip that neither rejects would serve corrupt data.
func TestBitFlipEverySection(t *testing.T) {
	data, _ := sealedGrocery(t)
	for sec := 0; sec < arena.NumSections; sec++ {
		off := binary.LittleEndian.Uint64(data[64+16*sec:])
		ln := binary.LittleEndian.Uint64(data[64+16*sec+8:])
		if ln == 0 {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[off+ln/2] ^= 0x10
		m, err := arena.OpenBytes(mut)
		if err != nil {
			continue // structural validation caught it at open
		}
		if err := m.Verify(); err == nil {
			t.Errorf("section %d: bit flip at %d survived Open and Verify", sec, off+ln/2)
		}
	}
}

// TestChecksumFlip corrupts the stored digest itself.
func TestChecksumFlip(t *testing.T) {
	data, _ := sealedGrocery(t)
	mut := append([]byte(nil), data...)
	mut[20] ^= 0x01 // inside the header checksum [16:48)
	m, err := arena.OpenBytes(mut)
	if err != nil {
		return
	}
	if err := m.Verify(); err == nil {
		t.Error("flipped checksum byte passed Verify")
	}
}

// TestTruncatedTail cuts the file at several points; every cut must
// fail Open (never Verify-later): a truncated image must not hand out
// views at all.
func TestTruncatedTail(t *testing.T) {
	data, _ := sealedGrocery(t)
	for _, cut := range []int{len(data) - 1, len(data) - 100, len(data) / 2, 700, 100, 10, 0} {
		if _, err := arena.OpenBytes(append([]byte(nil), data[:cut]...)); err == nil {
			t.Errorf("file truncated to %d bytes opened cleanly", cut)
		}
	}
}

// TestHeaderCorruption damages each header field in turn; Open must
// reject every variant before any view exists.
func TestHeaderCorruption(t *testing.T) {
	data, _ := sealedGrocery(t)
	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] ^= 0xFF }},
		{"bad version", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) }},
		{"wrong file size", func(b []byte) { binary.LittleEndian.PutUint64(b[48:], uint64(len(b)+8)) }},
		{"wrong section count", func(b []byte) { binary.LittleEndian.PutUint32(b[56:], 7) }},
		{"misaligned section offset", func(b []byte) {
			off := binary.LittleEndian.Uint64(b[64+16*arena.SecPromoItem:])
			binary.LittleEndian.PutUint64(b[64+16*arena.SecPromoItem:], off+4)
		}},
		{"overlapping sections", func(b []byte) {
			off := binary.LittleEndian.Uint64(b[64+16*arena.SecItemNameOff:])
			binary.LittleEndian.PutUint64(b[64+16*arena.SecItemNamePool:], off)
		}},
		{"section escapes file", func(b []byte) {
			binary.LittleEndian.PutUint64(b[64+16*arena.SecRuleBlobPool+8:], uint64(len(b)))
		}},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), data...)
		tc.mut(mut)
		if _, err := arena.OpenBytes(mut); err == nil {
			t.Errorf("%s: Open accepted the damaged header", tc.name)
		}
	}
}

func TestHeaderHashErrors(t *testing.T) {
	data, _ := sealedGrocery(t)
	if _, err := arena.HeaderHash(data[:10]); err == nil {
		t.Error("short prefix produced a header hash")
	}
	if _, err := arena.HeaderHash([]byte("not a sealed model prefix, но длинный enough padding......")); err == nil {
		t.Error("bad magic produced a header hash")
	}
}

// TestOpenBytesMisaligned forces the aligned-copy path: a view into a
// deliberately misaligned buffer must still open and verify.
func TestOpenBytesMisaligned(t *testing.T) {
	data, _ := sealedGrocery(t)
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	m, err := arena.OpenBytes(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}
