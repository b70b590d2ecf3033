// Package profitmining is a from-scratch Go implementation of
// "Profit Mining: From Patterns to Actions" (Ke Wang, Senqiang Zhou,
// Jiawei Han — EDBT 2002).
//
// Profit mining builds a recommender from past transactions: given a new
// customer's basket of non-target sales, it recommends one target item
// and a promotion code (price/packing) so as to maximize the net profit
// (Price − Cost) × Quantity over future customers — not the hit rate, and
// not the profit of the single most expensive item.
//
// The pipeline reproduced here is the paper's, end to end:
//
//  1. Transactions are generalized over a concept hierarchy extended with
//     MOA ("mining on availability"): a more favorable promotion code is
//     an ancestor of a less favorable one, so a sale at a high price also
//     supports recommending lower prices of the same item (shopping on
//     unavailability, Section 2).
//  2. Association rules {g1,…,gk} → ⟨item, promo⟩ are mined level-wise
//     with both statistical measures (support, confidence) and profit
//     measures: rule profit Prof_ru and recommendation profit Prof_re
//     (Section 3.1).
//  3. The MPF (most-profitable-first) recommender answers queries with
//     the highest-ranked matching rule (Section 3.2).
//  4. A covering tree over the rules is pruned bottom-up to the unique
//     optimal cut, maximizing the pessimistically projected profit on
//     future customers (Clopper–Pearson/C4.5 upper limits, Section 4).
//
// # Quick start
//
//	cat := profitmining.NewCatalog()
//	bread := cat.AddItem("Bread", false)
//	breadP := cat.AddPromo(bread, 2.0, 1.0, 1)
//	egg := cat.AddItem("Egg", true)
//	eggPack := cat.AddPromo(egg, 1.0, 0.5, 1)
//	egg4Pack := cat.AddPromo(egg, 3.2, 2.0, 4)
//
//	ds := &profitmining.Dataset{Catalog: cat, Transactions: ...}
//	rec, err := profitmining.Build(ds, profitmining.Options{MinSupport: 0.01})
//	r := rec.Recommend(profitmining.Basket{{Item: bread, Promo: breadP, Qty: 1}})
//	// r.Item, r.Promo — and rec.Explain(r) explains why.
//
// The subpackages under internal implement the substrates (hierarchy
// compilation, the Apriori-style miner, the covering tree, the IBM-Quest
// synthetic data generator, baselines, and the paper's evaluation
// harness); this package is the supported public surface.
package profitmining

import (
	"fmt"

	"profitmining/internal/core"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// Core data-model types. See the respective type documentation for
// semantics; in short: a Transaction has one target Sale and any number of
// non-target Sales, and a PromoCode prices a package of Packing units.
type (
	// Catalog registers items and promotion codes.
	Catalog = model.Catalog
	// Item is a product or a descriptive attribute.
	Item = model.Item
	// ItemID identifies an item within a catalog.
	ItemID = model.ItemID
	// PromoID identifies a promotion code within a catalog.
	PromoID = model.PromoID
	// PromoCode is a priced package of an item.
	PromoCode = model.PromoCode
	// Sale is one transaction line: ⟨item, promo, quantity⟩.
	Sale = model.Sale
	// Transaction couples one target sale with non-target sales.
	Transaction = model.Transaction
	// Basket is a future customer's non-target purchase.
	Basket = model.Basket
	// Dataset couples a catalog with transactions.
	Dataset = model.Dataset

	// QuantityModel estimates purchase quantity at a recommended promo.
	QuantityModel = model.QuantityModel
	// SavingMOA keeps the recorded quantity (the conservative default).
	SavingMOA = model.SavingMOA
	// BuyingMOA keeps the recorded spending.
	BuyingMOA = model.BuyingMOA
	// ExpectedBehavior pushes (x,y) purchase behavior into estimation.
	ExpectedBehavior = model.ExpectedBehavior

	// HierarchyBuilder assembles a concept hierarchy over a catalog.
	HierarchyBuilder = hierarchy.Builder
	// Space is a compiled generalized-sale space (MOA(H)).
	Space = hierarchy.Space

	// Recommender is the built profit-mining model.
	Recommender = core.Recommender
	// Recommendation is one recommended ⟨item, promo⟩ with its fired rule's ID.
	Recommendation = core.Recommendation
	// BuildStats reports model-construction statistics.
	BuildStats = core.BuildStats
	// Rule is a recommendation rule with its profit-mining measures.
	Rule = rules.Rule
)

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return model.NewCatalog() }

// NewHierarchy returns a concept-hierarchy builder over the catalog. Use
// it to declare concepts (AddConcept) and place non-target items under
// them (PlaceItem); pass the result in Options.Hierarchy.
func NewHierarchy(cat *Catalog) *HierarchyBuilder { return hierarchy.NewBuilder(cat) }

// Options configures Build. The zero value is not usable: set MinSupport,
// MinSupportCount or MinRuleProfit.
type Options struct {
	// MinSupport is the minimum relative support of a rule (e.g. 0.001
	// for the paper's 0.1%). MinSupportCount is its absolute form and
	// takes precedence when set.
	MinSupport      float64
	MinSupportCount int

	// MinRuleProfit, when positive, additionally requires rules to have
	// generated at least this profit on the training data; with no
	// support threshold it replaces support pruning (valid only when all
	// target promotion codes have non-negative profit).
	MinRuleProfit float64

	// MinConfidence, when positive, additionally requires rules to have
	// at least this confidence (hit rate per body match).
	MinConfidence float64

	// MaxBodyLen caps the rule body length (default 3).
	MaxBodyLen int

	// DisableMOA turns off mining-on-availability: promotion codes only
	// match exactly, both in rule bodies and in recommendation heads.
	// (The paper's −MOA ablation; MOA is on by default.)
	DisableMOA bool

	// BinaryProfit builds a confidence-driven model (p(r,t) ∈ {0,1}) —
	// the paper's CONF variants. The resulting recommender maximizes the
	// hit rate rather than the profit.
	BinaryProfit bool

	// CF is the confidence level of the pessimistic projected-profit
	// estimate (default 0.25, as in C4.5).
	CF float64

	// MinInterest, when above 1, additionally drops rules whose
	// recommendation profit does not beat every more general rule's by
	// this factor — the R-interest filter of Srikant–Agrawal's
	// generalized rule mining, adapted to Prof_re. 0 disables it.
	MinInterest float64

	// DisablePruning keeps the full MPF recommender instead of the
	// cut-optimal one (Section 3 without Section 4).
	DisablePruning bool

	// Quantity estimates the purchase quantity a customer accepts at a
	// more favorable code (default SavingMOA; see also BuyingMOA and
	// ExpectedBehavior).
	Quantity QuantityModel

	// Hierarchy optionally supplies a concept hierarchy over the
	// catalog's non-target items; nil uses the flat hierarchy (all items
	// directly under the root).
	Hierarchy *HierarchyBuilder

	// Parallelism bounds the worker pool used while mining rules and
	// building the covering tree. 0 (the default) uses one worker per
	// available CPU; 1 runs the exact serial path. The built recommender
	// is byte-identical for every setting — parallelism only changes the
	// wall-clock time. When Parallelism != 1, a custom Quantity model
	// must be safe for concurrent use (the built-in models are
	// stateless).
	Parallelism int
}

// Build constructs a profit-mining recommender from a dataset: it
// validates the data, compiles MOA(H), mines profit-sensitive generalized
// association rules, and prunes them to the cut-optimal recommender.
func Build(ds *Dataset, opts Options) (*Recommender, error) {
	if ds == nil {
		return nil, fmt.Errorf("profitmining: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	space, err := compileSpace(ds.Catalog, opts)
	if err != nil {
		return nil, err
	}
	mined, err := mining.Mine(space, ds.Transactions, opts.miningOptions())
	if err != nil {
		return nil, err
	}
	return core.Build(space, ds.Transactions, mined, opts.coreConfig())
}

// miningOptions maps the public options onto the mining stage's.
func (o Options) miningOptions() mining.Options {
	return mining.Options{
		MinSupport:      o.MinSupport,
		MinSupportCount: o.MinSupportCount,
		MinRuleProfit:   o.MinRuleProfit,
		MinConfidence:   o.MinConfidence,
		MaxBodyLen:      o.MaxBodyLen,
		BinaryProfit:    o.BinaryProfit,
		Quantity:        o.Quantity,
		Parallelism:     o.Parallelism,
	}
}

// coreConfig maps the public options onto the model-construction stage's.
func (o Options) coreConfig() core.Config {
	prune := core.PruneCutOptimal
	if o.DisablePruning {
		prune = core.PruneOff
	}
	return core.Config{
		CF:           o.CF,
		Prune:        prune,
		BinaryProfit: o.BinaryProfit,
		Quantity:     o.Quantity,
		MinInterest:  o.MinInterest,
		Parallelism:  o.Parallelism,
	}
}

// CompileSpace compiles the generalized-sale space a dataset's
// recommender will operate on — exposed for advanced use (inspecting
// generalizations, custom evaluation).
func CompileSpace(cat *Catalog, hb *HierarchyBuilder, moa bool) (*Space, error) {
	if hb == nil {
		hb = hierarchy.NewBuilder(cat)
	}
	return hb.Compile(hierarchy.Options{MOA: moa})
}

func compileSpace(cat *Catalog, opts Options) (*Space, error) {
	return CompileSpace(cat, opts.Hierarchy, !opts.DisableMOA)
}
