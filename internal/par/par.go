// Package par provides the deterministic worker-pool primitives behind
// the parallel model-build pipeline (mining's level-wise counting and
// core's covering-tree construction).
//
// Determinism contract: a computation parallelized with this package must
// produce byte-identical results for every worker count, including 1.
// Integer accumulation is order-independent, but floating-point addition
// is not associative, so Ordered fixes the summation tree instead of the
// schedule: work is split into fixed-size shards (ShardSize, independent
// of the worker count), each shard produces a partial result accumulated
// in element order, and partials are committed in ascending shard order
// on a single goroutine. Which goroutine computes a shard is scheduling;
// the arithmetic — shard boundaries and merge order — is not.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardSize is the fixed shard width used by Ordered. It must not depend
// on the worker count: the shard decomposition defines the floating-point
// merge order, so changing it changes results in the last ulp.
const ShardSize = 1024

// Workers resolves a Parallelism knob to a worker count: 0 (the unset
// default) means one worker per available CPU, anything below 1 clamps
// to strictly serial.
func Workers(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// NumShards returns the number of ShardSize-wide shards covering [0, n).
func NumShards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ShardSize - 1) / ShardSize
}

// shardBounds returns the half-open element range of shard s over [0, n).
func shardBounds(s, n int) (lo, hi int) {
	lo = s * ShardSize
	hi = lo + ShardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns when all calls have completed. fn must touch only state owned
// by index i (plus immutable shared state), which makes the result
// independent of scheduling. With workers <= 1 it is a plain loop.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Claim small index blocks rather than single indices so cheap
	// per-element bodies don't serialize on the counter.
	const block = 64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(block)) - block
				if lo >= n {
					return
				}
				hi := lo + block
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Ordered shards [0, n) into ShardSize-wide chunks, runs process for each
// shard on a pool of up to workers goroutines, and calls commit once per
// shard in ascending shard order on the calling goroutine.
//
// process receives the worker index (0 <= worker < workers) so call sites
// can keep per-worker scratch state (a worker index is only ever used by
// one goroutine); shard is the shard index and [lo, hi) its element
// range. The number of shards in flight — produced but not yet committed
// — is bounded by about twice the worker count, so pooled shard buffers
// stay bounded too.
//
// With workers <= 1 (or a single shard) everything runs on the calling
// goroutine, in shard order, through the same process/commit sequence:
// the serial path and the parallel path perform identical arithmetic.
func Ordered[T any](workers, n int, process func(worker, shard, lo, hi int) T, commit func(shard int, v T)) {
	shards := NumShards(n)
	if shards == 0 {
		return
	}
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			lo, hi := shardBounds(s, n)
			commit(s, process(0, s, lo, hi))
		}
		return
	}

	type result struct {
		shard int
		val   T
	}
	results := make(chan result, workers)
	// sem bounds shards claimed but not yet committed: a token is taken
	// before claiming a shard and released after its commit.
	sem := make(chan struct{}, 2*workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				sem <- struct{}{}
				s := int(next.Add(1)) - 1
				if s >= shards {
					<-sem
					return
				}
				lo, hi := shardBounds(s, n)
				results <- result{s, process(worker, s, lo, hi)}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: partials arrive in completion order and are
	// committed in shard order.
	pending := make(map[int]T, 2*workers)
	nextCommit := 0
	for r := range results {
		pending[r.shard] = r.val
		for {
			v, ok := pending[nextCommit]
			if !ok {
				break
			}
			delete(pending, nextCommit)
			commit(nextCommit, v)
			nextCommit++
			<-sem
		}
	}
}
