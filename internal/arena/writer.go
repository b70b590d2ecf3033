package arena

import (
	"crypto/sha256"
	"encoding/binary"
	"os"

	"profitmining/internal/hierarchy"
)

// Writer assembles one sealed model image. Sealing is the offline,
// O(model) half of the format: the serving side never pays for layout
// again. Typical use: fill every section, SetMeta, Finish.
type Writer struct {
	meta Meta
	secs [NumSections][]byte
}

// NewWriter returns a Writer, refusing big-endian hosts (the format is
// little-endian and the writer emits host-order bytes).
func NewWriter() (*Writer, error) {
	if !hostLittleEndian() {
		return nil, errf("sealing requires a little-endian host")
	}
	return &Writer{}, nil
}

// SetMeta records the counts and build statistics.
func (w *Writer) SetMeta(m Meta) { w.meta = m }

// PutI32 fills a section with int32 values. The slice is aliased until
// Finish copies it into the image.
func (w *Writer) PutI32(sec int, v []int32) { w.secs[sec] = asBytes(v) }

// PutI64 fills a section with int64 values.
func (w *Writer) PutI64(sec int, v []int64) { w.secs[sec] = asBytes(v) }

// PutF64 fills a section with float64 values.
func (w *Writer) PutF64(sec int, v []float64) { w.secs[sec] = asBytes(v) }

// PutGen fills a section with generalized-sale IDs.
func (w *Writer) PutGen(sec int, v []hierarchy.GenID) { w.secs[sec] = asBytes(v) }

// PutBytes fills a byte-pool section.
func (w *Writer) PutBytes(sec int, v []byte) { w.secs[sec] = v }

// Finish lays the sections out 8-byte aligned in table order, writes
// the header and section table, and seals the image with its sha256.
// The result round-trips through OpenBytes, which is how the sealing
// code opens the image it then serves from.
func (w *Writer) Finish() ([]byte, error) {
	w.secs[SecMeta] = encodeMeta(w.meta)

	total := headerSize
	var offs [NumSections]int
	for i, s := range w.secs {
		offs[i] = total
		total += (len(s) + 7) &^ 7
	}
	// The final section needs no tail padding; keep the exact end so
	// pool-bracket checks see true lengths.
	if n := len(w.secs[NumSections-1]); n%8 != 0 {
		total -= 8 - n%8
	}

	buf := make([]byte, total)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:], formatVersion)
	binary.LittleEndian.PutUint64(buf[48:], uint64(total))
	binary.LittleEndian.PutUint32(buf[56:], NumSections)
	for i, s := range w.secs {
		binary.LittleEndian.PutUint64(buf[64+16*i:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(buf[64+16*i+8:], uint64(len(s)))
		copy(buf[offs[i]:], s)
	}
	sum := sha256.Sum256(buf[checksumStart:])
	copy(buf[16:48], sum[:])
	return buf, nil
}

// WriteFile finishes the image and writes it to path in one call.
func (w *Writer) WriteFile(path string) error {
	data, err := w.Finish()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
