package modelio

import (
	"fmt"
	"os"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/model"
)

// This file is modelio format v3: the sealed arena image (see
// internal/arena for the byte layout), the only format a model loads
// from. It is a serving artifact, not an interchange format — it stores
// interned IDs, flattened tries, and pre-marshaled response blobs, and
// it opens with O(#sections) fixup over its bytes, no per-rule
// decoding. core seals every model where it is built, and Seal hands
// out that image.

// ContentHash returns a sealed image's identity in hex: the digest
// embedded in its header, read without a hashing pass. It is "" for
// anything else. Registry snapshots and cluster distribution carry this
// value, so a model keeps one identity however it arrives.
func ContentHash(data []byte) string {
	h, err := arena.HeaderHash(data)
	if err != nil {
		return ""
	}
	return h
}

// LoadFile reads a sealed model file into memory and loads it as
// LoadBytes does. The model serves from its own copy of the bytes, so
// rewriting the file afterwards cannot change or fault it. Anything but
// a sealed image, a v2 JSON export included, fails.
func LoadFile(path string) (*model.Catalog, *core.Recommender, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return LoadBytes(data)
}

// LoadBytes opens a sealed image held in memory zero-copy and verifies
// it; anything else fails. The cluster sync path receives images this
// way.
func LoadBytes(data []byte) (*model.Catalog, *core.Recommender, error) {
	m, err := arena.OpenBytes(data)
	if err != nil {
		return nil, nil, err
	}
	return fromVerified(m)
}

// VerifyFile checks a sealed model file's structure and whole-file
// checksum without wrapping a recommender around it — the cheap
// integrity probe before shipping a file to a serving fleet.
func VerifyFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := arena.OpenBytes(data)
	if err != nil {
		return err
	}
	return m.Verify()
}

// fromVerified gates an opened arena behind Verify and wraps it. The
// catalog materializes here — once per staged model — so recommenders
// handed out by this path always have a screened, non-nil catalog.
func fromVerified(m *arena.Model) (*model.Catalog, *core.Recommender, error) {
	if err := m.Verify(); err != nil {
		return nil, nil, err
	}
	cat, err := m.Catalog()
	if err != nil {
		return nil, nil, err
	}
	rec, err := core.FromSealed(m)
	if err != nil {
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
	return rec.Sealed().Bytes(), nil
}

// SealFile seals to a file.
func SealFile(path string, cat *model.Catalog, rec *core.Recommender) error {
	data, err := Seal(cat, rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
