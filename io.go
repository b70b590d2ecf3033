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

// SaveModel writes a built recommender's v2 JSON export to path: a
// self-contained structural description (catalog, hierarchy, pruned
// rule tree with measures) for inspection. Nothing loads it back; write
// the servable file with SealModel.
func SaveModel(path string, cat *Catalog, spec *HierarchySpec, rec *Recommender) error {
	return modelio.SaveFile(path, cat, spec, rec)
}

// LoadModel opens a model file written by SealModel. Anything else,
// a SaveModel export included, fails.
func LoadModel(path string) (*Catalog, *Recommender, error) {
	return modelio.LoadFile(path)
}

// VerifyModel checks a sealed model file's structure and whole-file
// checksum without serving from it — cheap corruption detection before
// deploying a file to a serving fleet. Anything but a sealed image
// fails.
func VerifyModel(path string) error {
	return modelio.VerifyFile(path)
}

// SealModel writes the recommender's sealed serving image (modelio
// format v3) to path: one mmap-able arena file that LoadModel,
// profitserve and the serving registry open in O(1) of the model size,
// with every response blob pre-marshaled. It is a deployment artifact —
// byte layout, not interchange — and cannot be re-trained from; keep
// the dataset as the source of truth.
func SealModel(path string, cat *Catalog, rec *Recommender) error {
	return modelio.SealFile(path, cat, rec)
}

// WriteModel is the stream form of SaveModel: it writes the same v2
// JSON export.
func WriteModel(w io.Writer, cat *Catalog, spec *HierarchySpec, rec *Recommender) error {
	return modelio.Save(w, cat, spec, rec)
}
