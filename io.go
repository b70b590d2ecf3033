package profitmining

import (
	"io"

	"profitmining/internal/dataio"
	"profitmining/internal/modelio"
)

// HierarchySpec is the serializable form of a concept hierarchy, stored
// in dataset files alongside the catalog.
type HierarchySpec = dataio.HierarchySpec

// ConceptSpec is one serialized concept with its parents.
type ConceptSpec = dataio.ConceptSpec

// SaveDataset writes a dataset (and optional hierarchy) to path in the
// line-oriented JSON format of this library.
func SaveDataset(path string, ds *Dataset, spec *HierarchySpec) error {
	return dataio.Save(path, ds, spec)
}

// LoadDataset reads a dataset written by SaveDataset and validates it.
func LoadDataset(path string) (*Dataset, *HierarchySpec, error) {
	return dataio.Load(path)
}

// WriteDataset serializes to a stream; ReadDataset is its inverse.
func WriteDataset(w io.Writer, ds *Dataset, spec *HierarchySpec) error {
	return dataio.Write(w, ds, spec)
}

// ReadDataset deserializes a dataset from a stream and validates it.
func ReadDataset(r io.Reader) (*Dataset, *HierarchySpec, error) {
	return dataio.Read(r)
}

// BasketOptions configures conversion of raw market-basket files (one
// whitespace-separated transaction per line) into a dataset.
type BasketOptions = dataio.BasketOptions

// ReadBaskets parses raw basket data — the format of the classic public
// retail datasets — synthesizing the promotion ladders the format lacks.
// Name the target items in opts.Targets.
func ReadBaskets(r io.Reader, opts BasketOptions) (*Dataset, error) {
	return dataio.ReadBaskets(r, opts)
}

// SaveModel persists a built recommender to path. The file is
// self-contained (catalog, hierarchy, pruned rule tree), so LoadModel
// needs nothing else to serve recommendations.
func SaveModel(path string, cat *Catalog, spec *HierarchySpec, rec *Recommender) error {
	return modelio.SaveFile(path, cat, spec, rec)
}

// LoadModel restores a recommender saved with SaveModel.
func LoadModel(path string) (*Catalog, *Recommender, error) {
	return modelio.LoadFile(path)
}

// VerifyModel checks a saved model's format version and payload
// checksum without restoring it — cheap corruption detection before
// deploying a file to a serving fleet. A file without a checksum
// (including the pre-checksum v1 format) fails.
func VerifyModel(path string) error {
	return modelio.VerifyFile(path)
}

// SealModel writes the recommender's sealed serving image (modelio
// format v3) to path: one mmap-able arena file that LoadModel and the serving
// registry open in O(1) of the model size, with every response blob
// pre-marshaled. Unlike SaveModel's structural JSON, a sealed file is a
// deployment artifact — byte-layout, not interchange — and cannot be
// re-trained from; keep the v2 file (or the dataset) as the source of
// truth.
func SealModel(path string, cat *Catalog, rec *Recommender) error {
	return modelio.SealFile(path, cat, rec)
}

// WriteModel and ReadModel are the stream forms of SaveModel/LoadModel.
func WriteModel(w io.Writer, cat *Catalog, spec *HierarchySpec, rec *Recommender) error {
	return modelio.Save(w, cat, spec, rec)
}

// ReadModel restores a recommender from a stream.
func ReadModel(r io.Reader) (*Catalog, *Recommender, error) {
	return modelio.Load(r)
}
