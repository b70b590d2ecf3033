package mining

import (
	"fmt"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/par"
)

// Stream mines a sliding window of transactions. It keeps the window —
// the raw transactions and their expansions, each entering transaction
// expanded once — and every Slide re-mines the whole window with Mine's
// level-wise loop, so a slide's Result equals Mine over the same window
// with the same options by construction. It is not safe for concurrent
// use.
type Stream struct {
	m   *miner
	raw []model.Transaction // current window, oldest first
	res *Result
}

// NewStream mines the initial window and returns a Stream positioned on
// it.
func NewStream(space *hierarchy.Space, txns []model.Transaction, opts Options) (*Stream, error) {
	m, err := newMiner(space, opts, len(txns))
	if err != nil {
		return nil, err
	}
	m.prepare(txns)
	return &Stream{m: m, raw: append([]model.Transaction(nil), txns...), res: m.run()}, nil
}

// Slide evicts the oldest evict transactions, appends enter, and re-mines
// the new window. The returned Result is identical — rule for rule,
// statistic for statistic, order for order — to Mine over the same
// window with the same options.
func (s *Stream) Slide(enter []model.Transaction, evict int) (*Result, error) {
	m := s.m
	if evict < 0 || evict > len(m.txns) {
		return nil, fmt.Errorf("mining: evict %d outside window of %d", evict, len(m.txns))
	}
	keep := len(m.txns) - evict
	nw := keep + len(enter)
	if nw == 0 {
		return nil, fmt.Errorf("mining: slide would empty the window")
	}

	txns := make([]txnData, nw)
	copy(txns, m.txns[evict:])
	raw := make([]model.Transaction, nw)
	copy(raw, s.raw[evict:])
	copy(raw[keep:], enter)
	par.For(m.workers, len(enter), func(i int) {
		m.expandTxn(&raw[keep+i], &txns[keep+i])
	})
	m.txns = txns
	s.raw = raw

	// A relative MinSupport re-resolves against the new window length,
	// exactly as a batch run over this window would.
	m.minCount = resolveMinCount(m.opts, nw)
	s.res = m.run()
	return s.res, nil
}

// Result returns the result of the latest mine. The pointer is a
// snapshot: later slides do not mutate it.
func (s *Stream) Result() *Result { return s.res }

// Window returns the current window, oldest first. The slice is owned by
// the stream; callers must not modify it.
func (s *Stream) Window() []model.Transaction { return s.raw }

// Len returns the current window length.
func (s *Stream) Len() int { return len(s.raw) }

// ExpandedBodies returns each window transaction's expanded non-target
// basket (as produced by Space.ExpandBasket), in window order. The inner
// slices are owned by the stream; callers must not modify them.
func (s *Stream) ExpandedBodies() [][]hierarchy.GenID {
	out := make([][]hierarchy.GenID, len(s.m.txns))
	for i := range s.m.txns {
		out[i] = s.m.txns[i].items
	}
	return out
}
