package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"profitmining"
	"profitmining/internal/datagen"
	"profitmining/internal/model"
	"profitmining/internal/quest"
	"profitmining/internal/simload"
)

// Inputs shared by the serve and fleet workloads: Dataset I with
// |I|=200, mined at 1% support with bodies up to 3 items over 8,000
// training transactions.
const (
	dsItems  = 200
	dsMinsup = 0.01
	dsMaxLen = 3
	dsTrain  = 8000

	// The dataset itself is fixed, so a build costs the same under every
	// seed and the spread between seeds is the measurement's own. The
	// seed draws the traffic and the held-out sample: holdoutN
	// transactions out of holdoutPool generated after the training ones.
	dataSeed    = 1
	holdoutPool = 12000
	holdoutN    = 4000

	// users is the size of the simulated population the open loop draws
	// its customers from, as in profitbench -soakbench.
	users = 100_000

	batchSize  = 64 // baskets per /recommend/batch
	batchCount = 16 // distinct batch bodies in the pool
)

// inputs is a generated dataset with the generator's ground truth, its
// training transactions, the seed's held-out sample, the traffic model
// built from the truth and the wire bodies the load generator sends.
type inputs struct {
	ds      *profitmining.Dataset
	train   []model.Transaction
	holdout []model.Transaction
	pop     *simload.Population // who shops which baskets
	buy     *simload.BuyModel   // whether they take what is recommended
	baskets []model.Basket      // every non-empty basket of ds, for batches and direct timings
	recs    [][]byte            // /recommend body per transaction of ds, without its "{" (nil for an empty basket)
	batches [][]byte            // /recommend/batch bodies, without their "{"
}

// genInputs generates the fixed Dataset I with items non-target items:
// train transactions for training followed by the held-out pool, from
// which seed draws the held-out sample. The dataset is the one
// GenerateDatasetI gives for the same configuration, generated with its
// ground truth so that simload's population and buy model can drive the
// traffic.
func genInputs(seed int64, items, train int) (*inputs, error) {
	q := quest.Config{NumTransactions: train + holdoutPool, NumItems: items, Seed: dataSeed}
	ds, truth, err := datagen.GenerateWithTruth(datagen.DatasetIConfig(q, dataSeed+1))
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	if len(ds.Transactions) < train+holdoutN {
		return nil, fmt.Errorf("dataset has %d transactions, %d are needed", len(ds.Transactions), train+holdoutN)
	}
	in := &inputs{ds: ds, train: ds.Transactions[:train]}
	pool := ds.Transactions[train:]
	pick := rand.New(rand.NewSource(seed)).Perm(len(pool))[:holdoutN]
	sort.Ints(pick)
	for _, i := range pick {
		in.holdout = append(in.holdout, pool[i])
	}
	if in.pop, err = simload.NewPopulation(ds, truth, users); err != nil {
		return nil, err
	}
	if in.buy, err = simload.NewBuyModel(truth); err != nil {
		return nil, err
	}
	in.recs = make([][]byte, len(ds.Transactions))
	for i, body := range in.pop.Payloads {
		if body != nil {
			in.recs[i] = body[1:]
			in.baskets = append(in.baskets, model.Basket(ds.Transactions[i].NonTarget))
		}
	}
	if len(in.baskets) < batchSize {
		return nil, fmt.Errorf("dataset has only %d non-empty baskets", len(in.baskets))
	}
	for i := 0; i < batchCount; i++ {
		var req struct {
			Baskets []wireRequest `json:"baskets"`
		}
		for j := 0; j < batchSize; j++ {
			req.Baskets = append(req.Baskets, wireBasket(ds.Catalog, in.baskets[(i*batchSize+j*7919)%len(in.baskets)]))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, body[1:])
	}
	return in, nil
}

// wireSale and wireRequest are the serving layer's JSON request shapes:
// items by name, promotion codes by per-item index.
type wireSale struct {
	Item    string  `json:"item"`
	PromoIx int     `json:"promoIx"`
	Qty     float64 `json:"qty"`
}

type wireRequest struct {
	Basket []wireSale `json:"basket"`
	K      int        `json:"k"`
}

func wireBasket(cat *model.Catalog, b model.Basket) wireRequest {
	req := wireRequest{K: 1}
	for _, s := range b {
		ix := 0
		for i, p := range cat.Promos(s.Item) {
			if p == s.Promo {
				ix = i
			}
		}
		req.Basket = append(req.Basket, wireSale{Item: cat.Item(s.Item).Name, PromoIx: ix, Qty: s.Qty})
	}
	return req
}
