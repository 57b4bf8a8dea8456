// Package fanout is the one deterministic worker pool behind every parallel
// stage: the campaign's explore and execute stages, symex subtree tasks,
// equivcheck handlers, triage cases and the hybrid fuzzer's pools.
//
// The determinism contract: tasks communicate results only through
// caller-owned, index-disjoint slots, and the caller merges them in index
// order after Run returns. Task scheduling order is therefore unobservable,
// which is what makes every report byte-identical for any worker count.
// What a panic means (a fault record, a re-panic, a skipped slot) is the
// caller's policy; the pool only contains it to its index.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run executes task(0..n-1) on min(max(workers, 1), n) goroutines; each
// index runs at most once. A task that panics is recovered and its raw
// panic value recorded in panics[i], so the other indices still complete.
//
// Cancellation: once ctx is done, workers pull no new indices; tasks
// already in flight run to completion. ran[i] reports whether index i
// started, so the caller can count exactly which units were skipped.
func Run(ctx context.Context, workers, n int, task func(i int)) (panics []any, ran []bool) {
	panics = make([]any, n)
	ran = make([]bool, n)
	if n == 0 {
		return panics, ran
	}
	workers = min(max(workers, 1), n)
	run := func(i int) {
		ran[i] = true
		defer func() { panics[i] = recover() }()
		task(i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return panics, ran
}
