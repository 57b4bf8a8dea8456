package fanout

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestRunEmpty(t *testing.T) {
	panics, ran := Run(context.Background(), 4, 0, func(int) { t.Error("n=0 must not run tasks") })
	if len(panics) != 0 || len(ran) != 0 {
		t.Errorf("n=0: got %d panics, %d ran slots", len(panics), len(ran))
	}
}

// TestRunEachIndexOnce pins the core contract for every clamp case: a
// worker count below 1, exactly 1, a few, and more than n.
func TestRunEachIndexOnce(t *testing.T) {
	const n = 10
	for _, workers := range []int{0, 1, 4, n + 3} {
		var hits [n]atomic.Int32
		panics, ran := Run(context.Background(), workers, n, func(i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
			if !ran[i] || panics[i] != nil {
				t.Errorf("workers=%d: index %d ran=%v panic=%v", workers, i, ran[i], panics[i])
			}
		}
	}
}

// TestRunPanicContained checks that a panicking index records its raw
// value while every other slot still completes.
func TestRunPanicContained(t *testing.T) {
	type boom struct{ i int }
	const n = 10
	for _, workers := range []int{1, 4} {
		var done [n]bool
		panics, ran := Run(context.Background(), workers, n, func(i int) {
			if i%4 == 1 {
				panic(boom{i})
			}
			done[i] = true
		})
		for i := 0; i < n; i++ {
			if !ran[i] {
				t.Errorf("workers=%d: index %d did not run", workers, i)
			}
			if i%4 == 1 {
				if panics[i] != (boom{i}) || done[i] {
					t.Errorf("workers=%d: index %d panic = %#v, done = %v", workers, i, panics[i], done[i])
				}
			} else if panics[i] != nil || !done[i] {
				t.Errorf("workers=%d: index %d panic = %#v, done = %v", workers, i, panics[i], done[i])
			}
		}
	}
}

// TestRunCancelStopsPulls cancels from inside one task: with one worker
// the indices after it are never pulled, and ran[] says exactly which
// ones started.
func TestRunCancelStopsPulls(t *testing.T) {
	const n, stop = 8, 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	_, ran := Run(ctx, 1, n, func(i int) {
		calls.Add(1)
		if i == stop {
			cancel()
		}
	})
	for i := 0; i < n; i++ {
		if ran[i] != (i <= stop) {
			t.Errorf("ran[%d] = %v, want %v", i, ran[i], i <= stop)
		}
	}
	if calls.Load() != stop+1 {
		t.Errorf("%d tasks ran, want %d", calls.Load(), stop+1)
	}

	// With several workers the tasks in flight finish, nothing new starts,
	// and ran[] agrees with the tasks that actually ran.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var started [64]atomic.Bool
	_, ran = Run(ctx, 4, len(started), func(i int) {
		started[i].Store(true)
		if i == 5 {
			cancel()
		}
	})
	count := 0
	for i := range started {
		if ran[i] != started[i].Load() {
			t.Errorf("ran[%d] = %v but task started = %v", i, ran[i], started[i].Load())
		}
		if ran[i] {
			count++
		}
	}
	if !ran[5] || count == len(started) {
		t.Errorf("cancellation did not stop new pulls: %d of %d ran", count, len(started))
	}

	// A context already done runs nothing.
	_, ran = Run(ctx, 4, 3, func(int) { t.Error("canceled pool must not run tasks") })
	for i, r := range ran {
		if r {
			t.Errorf("ran[%d] on a canceled context", i)
		}
	}
}
