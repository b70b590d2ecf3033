package modelio

import (
	"bytes"
	"fmt"
	"os"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/model"
)

// This file is modelio format v3: the sealed arena image (see
// internal/arena for the byte layout). Unlike v2, a sealed file is a
// serving artifact, not an interchange format — it stores interned IDs,
// flattened tries, and pre-marshaled response blobs, and it loads in
// O(1) of the rule count by mmap. Save still writes v2 (the editable,
// structural form); core seals every model where it is built or
// restored, and Seal hands out that image.

// IsSealed reports whether data begins with a sealed-model header.
func IsSealed(data []byte) bool { return arena.SniffMagic(data) }

// ContentHash returns a sealed image's identity in hex: the digest
// embedded in its header, read without a hashing pass. It is "" for
// anything else — a JSON model's identity is the digest of the image it
// is sealed into when loaded. Registry snapshots and cluster
// distribution carry this value, so a model keeps one identity however
// it arrives.
func ContentHash(data []byte) string {
	h, err := arena.HeaderHash(data)
	if err != nil {
		return ""
	}
	return h
}

// LoadBytes restores a model of any format held in memory: sealed
// images are verified and opened zero-copy; v2 JSON decodes through
// Load. The cluster sync path receives images this way.
func LoadBytes(data []byte) (*model.Catalog, *core.Recommender, error) {
	if IsSealed(data) {
		m, err := arena.OpenBytes(data)
		if err != nil {
			return nil, nil, err
		}
		return fromVerified(m)
	}
	return Load(bytes.NewReader(data))
}

// OpenSealed opens a sealed model file — mmap plus O(1) fixup — then
// runs the full checksum verification once. opts.NoMmap forces the
// pure-Go fallback.
func OpenSealed(path string, opts arena.Options) (*model.Catalog, *core.Recommender, error) {
	m, err := arena.OpenFile(path, opts)
	if err != nil {
		return nil, nil, err
	}
	return fromVerified(m)
}

// fromVerified gates an opened arena behind Verify and wraps it. The
// catalog materializes here — once per staged model — so recommenders
// handed out by this path always have a screened, non-nil catalog.
func fromVerified(m *arena.Model) (*model.Catalog, *core.Recommender, error) {
	if err := m.Verify(); err != nil {
		m.Arena().Close()
		return nil, nil, err
	}
	cat, err := m.Catalog()
	if err != nil {
		m.Arena().Close()
		return nil, nil, err
	}
	rec, err := core.FromSealed(m)
	if err != nil {
		m.Arena().Close()
		return nil, nil, err
	}
	return cat, rec, nil
}

// Seal returns the recommender's sealed image: every recommender
// serves from one, sealed where it was built (or opened from disk), so
// nothing is sealed a second time. cat must be the catalog the
// recommender serves against. The bytes must not be modified.
func Seal(cat *model.Catalog, rec *core.Recommender) ([]byte, error) {
	if cat != rec.Catalog() {
		return nil, fmt.Errorf("modelio: sealing against a catalog the recommender was not built over")
	}
	return rec.Sealed().Arena().Bytes(), nil
}

// SealFile seals to a file.
func SealFile(path string, cat *model.Catalog, rec *core.Recommender) error {
	data, err := Seal(cat, rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
