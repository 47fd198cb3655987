package mat

import (
	"runtime"
	"sync"
	"testing"
)

// poolReinitForTest tears down the pool bookkeeping so the next dispatch
// re-runs poolInit under the current GOMAXPROCS. Workers started by a
// previous init keep ranging over their old channel and simply never
// receive work again — harmless in a test process, unacceptable anywhere
// else, which is why this lives in a _test file.
func poolReinitForTest() {
	pool.once = sync.Once{}
	pool.workers = 0
	pool.tasks = nil
}

// TestPoolMultiWorkerPath forces a real multi-worker pool even on
// single-CPU machines (where GOMAXPROCS=1 normally degrades every
// dispatch to the inline serial loop, leaving poolInit, the task
// channel, and the wake protocol unexercised by CI). It checks that
// pool-dispatched products match the serial path bit-for-bit, that
// concurrent submitters all complete (no lost wakeups or stuck done
// signals), and that nested dispatch cannot deadlock.
func TestPoolMultiWorkerPath(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	poolReinitForTest()
	defer func() {
		runtime.GOMAXPROCS(oldProcs)
		poolReinitForTest()
	}()
	savedThresh := setParallelThreshold(1)
	defer setParallelThreshold(savedThresh)

	a := randDenseSeed(t, 96, 64, 301)
	b := randDenseSeed(t, 64, 96, 302)

	setParallelThreshold(1 << 62)
	wantMul := Mul(a, b)
	wantGramT := GramTTo(New(a.Rows(), a.Rows()), a)
	setParallelThreshold(1)

	if pool.workers == 0 {
		// Force init through a dispatch, then confirm workers exist.
		_ = Mul(a, b)
	}
	if pool.workers != 3 {
		t.Fatalf("pool started %d background workers under GOMAXPROCS=4, want 3", pool.workers)
	}

	// Serial-vs-pool bit identity through the real channel/wake path.
	if got := Mul(a, b); !got.Equal(wantMul) {
		t.Fatal("pool-dispatched Mul disagrees with serial path")
	}
	if got := GramTTo(New(a.Rows(), a.Rows()), a); !got.Equal(wantGramT) {
		t.Fatal("pool-dispatched GramT disagrees with serial path")
	}

	// Concurrent submitters racing for the same workers: every dispatch
	// must complete (the submitter always helps, so a saturated queue can
	// only slow a job down, never strand it).
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := Mul(a, b); !got.Equal(wantMul) {
					t.Error("concurrent pool Mul mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Nested dispatch: a tile body that itself schedules on the pool.
	done := make([]int, 8)
	forEachTile(8, func(i int) {
		inner := make([]int, 4)
		forEachTile(4, func(j int) { inner[j] = j + 1 })
		s := 0
		for _, v := range inner {
			s += v
		}
		done[i] = s
	})
	for i, v := range done {
		if v != 10 {
			t.Fatalf("nested forEachTile: slot %d = %d, want 10", i, v)
		}
	}
}
