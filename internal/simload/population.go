package simload

import (
	"encoding/json"
	"fmt"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/model"
)

// saleReq / recReq mirror the serve package's POST /recommend request
// shape: items by name, promotion codes by per-item index.
type saleReq struct {
	Item    string  `json:"item"`
	PromoIx int     `json:"promoIx"`
	Qty     float64 `json:"qty,omitempty"`
}

type recReq struct {
	Basket []saleReq `json:"basket"`
	K      int       `json:"k,omitempty"`
}

// Population is the static user universe of a simulation: every user
// has a home market-segment cell from the generator's ground truth, and
// shops baskets replayed from that cell's own transactions — so baskets
// carry exactly the item signal the mined rules key on. Request bodies
// are pre-marshaled once per transaction; the hot loop only picks an
// index.
type Population struct {
	// HomeCell is each user's cell index into Truth.Cells.
	HomeCell []int
	// CellTxns lists, per cell, the dataset transaction indices whose
	// baskets are non-empty — the pool a session samples from.
	CellTxns [][]int
	// Payloads holds the pre-marshaled POST /recommend body per dataset
	// transaction index (nil for empty baskets).
	Payloads [][]byte
}

// NewPopulation builds the user universe. The per-user cell assignment
// is a fixed multiplicative hash over the transaction table, so the
// population's cell mix follows the generated traffic mix exactly and
// involves no RNG state.
func NewPopulation(ds *model.Dataset, truth *datagen.GroundTruth, users int) (*Population, error) {
	if users < 1 {
		return nil, fmt.Errorf("simload: population needs at least 1 user, got %d", users)
	}
	if truth == nil || len(truth.Cells) == 0 || len(truth.TxnCell) == 0 {
		return nil, fmt.Errorf("simload: ground truth has no coupling cells; generate the dataset with TargetCorrelation > 0")
	}
	if len(truth.TxnCell) != len(ds.Transactions) {
		return nil, fmt.Errorf("simload: truth covers %d transactions, dataset has %d", len(truth.TxnCell), len(ds.Transactions))
	}

	p := &Population{
		HomeCell: make([]int, users),
		CellTxns: make([][]int, len(truth.Cells)),
		Payloads: make([][]byte, len(ds.Transactions)),
	}
	for i, txn := range ds.Transactions {
		if len(txn.NonTarget) == 0 {
			continue
		}
		req := recReq{K: 1}
		for _, sl := range txn.NonTarget {
			req.Basket = append(req.Basket, saleReq{
				Item:    ds.Catalog.Item(sl.Item).Name,
				PromoIx: core.PromoIndex(ds.Catalog, sl.Item, sl.Promo),
				Qty:     sl.Qty,
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("simload: marshal basket %d: %w", i, err)
		}
		p.Payloads[i] = body
		c := truth.TxnCell[i]
		p.CellTxns[c] = append(p.CellTxns[c], i)
	}

	nonEmpty := 0
	for _, pool := range p.CellTxns {
		if len(pool) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return nil, fmt.Errorf("simload: every transaction has an empty basket")
	}

	// Spread users over cells proportionally to cell traffic: user u
	// inherits the cell of a pseudo-randomly (but statelessly) chosen
	// transaction. Users landing on an empty-pool cell roll forward to
	// the next cell with traffic.
	n := uint64(len(truth.TxnCell))
	for u := range p.HomeCell {
		cell := truth.TxnCell[int(uint64(u)*2654435761%n)]
		for len(p.CellTxns[cell]) == 0 {
			cell = (cell + 1) % len(p.CellTxns)
		}
		p.HomeCell[u] = cell
	}
	return p, nil
}
