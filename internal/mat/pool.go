package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the package's parallel scheduler: one persistent worker
// pool, started lazily and sized to the machine, that every kernel in the
// package draws from. Replacing the old per-call fork/join (a
// sync.WaitGroup and fresh goroutines per product) with long-lived
// workers removes per-product goroutine churn from the ALM hot loop.
//
// Work is distributed as tiles claimed from an atomic counter: whichever
// worker is free takes the next tile, so load-imbalanced grids (the
// triangular Gram kernels, whose first rows cost ~2× the last) balance
// themselves without a static partition. Determinism is unaffected — the
// tile grid is a pure function of the operand shapes, each output element
// is written by exactly one tile, and every tile accumulates in a fixed
// k-order — so results are bit-identical no matter how many workers claim
// tiles (see TestGEMMSchedulingInvariance).

// parallelThreshold is the amount of multiply work (flops) below which
// kernels run single-threaded; fork/join overhead dominates for small
// products, which the LRM inner loop issues by the thousand. It is
// atomic so tests forcing one path cannot race concurrently running
// dispatchers (it used to be a bare package global mutated by tests).
var parallelThreshold atomic.Int64

func init() { parallelThreshold.Store(1 << 21) }

// setParallelThreshold installs a new serial/parallel cutoff and returns
// the previous one. It exists for tests that force the serial or the
// parallel path to prove both agree bit-for-bit.
func setParallelThreshold(v int64) int64 {
	return parallelThreshold.Swap(v)
}

// serialWork reports whether a job of the given total work volume (flops)
// is too small to be worth scheduling on the pool.
func serialWork(total int) bool {
	return int64(total) < parallelThreshold.Load()
}

// poolTask is one parallel job: tiles [0,tiles) are claimed from next by
// however many runners participate; the last runner to finish a tile
// signals done.
type poolTask struct {
	fn      func(tile int)
	tiles   int64
	next    atomic.Int64
	pending atomic.Int64
	done    chan struct{}
}

// run claims tiles until the grid is exhausted.
func (t *poolTask) run() {
	for {
		i := t.next.Add(1) - 1
		if i >= t.tiles {
			return
		}
		t.fn(int(i))
		if t.pending.Add(-1) == 0 {
			t.done <- struct{}{}
		}
	}
}

var pool struct {
	once    sync.Once
	workers int // background workers (submitters also run tiles)
	tasks   chan *poolTask
}

// poolInit starts the persistent workers: GOMAXPROCS−1 of them, because
// the submitting goroutine always participates in its own job, so total
// concurrency matches the machine without oversubscription.
func poolInit() {
	pool.workers = runtime.GOMAXPROCS(0) - 1
	if pool.workers <= 0 {
		pool.workers = 0
		return
	}
	pool.tasks = make(chan *poolTask, pool.workers)
	for i := 0; i < pool.workers; i++ {
		go func() {
			for t := range pool.tasks {
				t.run()
			}
		}()
	}
}

// forEachTile invokes fn(i) for every i in [0,tiles), drawing on the
// persistent pool when it exists. The submitter runs tiles itself (so a
// busy pool degrades to caller-runs, never deadlock), workers claim the
// rest dynamically. fn must not retain state across tiles; tiles may run
// in any order and on any goroutine.
func forEachTile(tiles int, fn func(tile int)) {
	if tiles <= 0 {
		return
	}
	pool.once.Do(poolInit)
	if pool.workers == 0 || tiles == 1 {
		for i := 0; i < tiles; i++ {
			fn(i)
		}
		return
	}
	t := &poolTask{fn: fn, tiles: int64(tiles), done: make(chan struct{}, 1)}
	t.pending.Store(int64(tiles))
	// Wake at most tiles−1 workers; if the queue is full every worker is
	// already busy and the submitter simply runs more of the grid itself.
	wake := pool.workers
	if wake > tiles-1 {
		wake = tiles - 1
	}
	for i := 0; i < wake; i++ {
		select {
		case pool.tasks <- t:
		default:
			i = wake // queue full; stop waking
		}
	}
	t.run()
	<-t.done
}

// packFree is a global free-list of packing buffers for the GEMM layer.
// A sync.Pool would also work, but its GC-droppable contents would make
// the ALM's pinned zero-allocation inner loop flaky; a capped LIFO keeps
// steady-state packing allocation-free deterministically. Retention is
// bounded both by count and by total bytes, so one burst of huge
// products cannot pin hundreds of megabytes in a long-lived server —
// oversized buffers are simply dropped and reallocated on the next
// oversized product.
var packFree struct {
	sync.Mutex
	//lrm:guardedby Mutex
	bufs [][]float64
	// bytes is Σ 8·cap over bufs.
	//
	//lrm:guardedby Mutex
	bytes int
}

const (
	packFreeCap      = 16
	packFreeMaxBytes = 64 << 20
)

// getPackBuf returns a length-n buffer whose contents are arbitrary; the
// packing routines overwrite every slot they read back.
func getPackBuf(n int) []float64 {
	packFree.Lock()
	best := -1
	for i, b := range packFree.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(packFree.bufs[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := packFree.bufs[best]
		last := len(packFree.bufs) - 1
		packFree.bufs[best] = packFree.bufs[last]
		packFree.bufs[last] = nil
		packFree.bufs = packFree.bufs[:last]
		packFree.bytes -= 8 * cap(b)
		packFree.Unlock()
		return b[:n]
	}
	packFree.Unlock()
	return make([]float64, n)
}

// putPackBuf retires a packing buffer for reuse, unless retaining it
// would exceed the free-list's count or byte caps.
func putPackBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	packFree.Lock()
	if len(packFree.bufs) < packFreeCap && packFree.bytes+8*cap(b) <= packFreeMaxBytes {
		packFree.bufs = append(packFree.bufs, b)
		packFree.bytes += 8 * cap(b)
	}
	packFree.Unlock()
}
