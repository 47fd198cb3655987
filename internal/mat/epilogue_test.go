package mat

import (
	"sync"
	"testing"
)

// TestEpilogueExactlyOnce proves the MulColsEpiTo contract that the
// epilogue observes every element of dst exactly once, with in-bounds
// rectangles, on both the serial path and the pooled tile path (forced
// via the parallel threshold). Shapes cross tile boundaries in both
// dimensions and include partial panels.
func TestEpilogueExactlyOnce(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{7, 5, 3},
		{64, 32, 8},
		{65, 33, 9},
		{130, 40, 70},
		{64, 128, 300},
	}
	for _, forcePool := range []bool{false, true} {
		saved := setParallelThreshold(1)
		if !forcePool {
			setParallelThreshold(1 << 62)
		}
		for _, sh := range shapes {
			a := randDenseSeed(t, sh.m, sh.k, int64(7*sh.m+sh.n))
			b := randDenseSeed(t, sh.k, sh.n, int64(13*sh.k+sh.m))
			seen := make([]int, sh.m*sh.n)
			var mu sync.Mutex
			MulColsEpiTo(New(sh.m, sh.n), a, b, func(r0, r1, c0, c1 int) {
				if r0 < 0 || r1 > sh.m || c0 < 0 || c1 > sh.n || r0 >= r1 || c0 >= c1 {
					t.Errorf("%dx%dx%d: epilogue rect [%d,%d)x[%d,%d) out of bounds", sh.m, sh.k, sh.n, r0, r1, c0, c1)
					return
				}
				mu.Lock()
				for i := r0; i < r1; i++ {
					for j := c0; j < c1; j++ {
						seen[i*sh.n+j]++
					}
				}
				mu.Unlock()
			})
			for idx, c := range seen {
				if c != 1 {
					t.Fatalf("%dx%dx%d (pool=%v): element %d observed %d times, want exactly once", sh.m, sh.k, sh.n, forcePool, idx, c)
				}
			}
		}
		setParallelThreshold(saved)
	}
}

// TestEpilogueBitIdentity checks that an order-independent per-element
// epilogue (adding a precomputed matrix, as the fused noise pass does)
// yields bit-identical results across the serial/pooled scheduling split
// and equals the unfused two-pass computation exactly.
func TestEpilogueBitIdentity(t *testing.T) {
	const m, k, n = 130, 70, 66
	a := randDenseSeed(t, m, k, 31)
	b := randDenseSeed(t, k, n, 32)
	add := randDenseSeed(t, m, n, 33)

	run := func() *Dense {
		dst := New(m, n)
		MulColsEpiTo(dst, a, b, func(r0, r1, c0, c1 int) {
			for i := r0; i < r1; i++ {
				for j := c0; j < c1; j++ {
					dst.Set(i, j, dst.At(i, j)+add.At(i, j))
				}
			}
		})
		return dst
	}

	// Unfused reference: full product, then a second sweep.
	want := MulColsTo(New(m, n), a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want.Set(i, j, want.At(i, j)+add.At(i, j))
		}
	}

	saved := setParallelThreshold(1)
	viaPool := run()
	setParallelThreshold(1 << 62)
	viaSerial := run()
	setParallelThreshold(saved)

	if !viaPool.Equal(want) {
		t.Fatal("fused epilogue over the pool differs bitwise from the unfused two-pass result")
	}
	if !viaSerial.Equal(want) {
		t.Fatal("fused epilogue on the serial path differs bitwise from the unfused two-pass result")
	}
}

// TestEpilogueCounter pins the FusedEpilogueRuns accounting: one bump per
// product with an epilogue, none without — for a GEMM-sized product and
// for a single column, which runs as MulVecTo: bitwise its result, with
// the epilogue called exactly once over the whole (0, m, 0, 1) column.
func TestEpilogueCounter(t *testing.T) {
	for _, n := range []int{8, 1} {
		a := randDenseSeed(t, 8, 8, 41)
		b := randDenseSeed(t, 8, n, 42)
		before := FusedEpilogueRuns()
		MulColsTo(New(8, n), a, b)
		if d := FusedEpilogueRuns() - before; d != 0 {
			t.Fatalf("n=%d: plain MulColsTo bumped the fused-epilogue counter by %d", n, d)
		}
		var rects [][4]int
		got := MulColsEpiTo(New(8, n), a, b, func(r0, r1, c0, c1 int) {
			rects = append(rects, [4]int{r0, r1, c0, c1})
		})
		if d := FusedEpilogueRuns() - before; d != 1 {
			t.Fatalf("n=%d: MulColsEpiTo bumped the fused-epilogue counter by %d, want 1", n, d)
		}
		if n != 1 {
			continue
		}
		if len(rects) != 1 || rects[0] != [4]int{0, 8, 0, 1} {
			t.Fatalf("single column: epilogue rectangles %v, want exactly [0 8 0 1]", rects)
		}
		want := MulVecTo(make([]float64, 8), a, b.RawData())
		for i, v := range want {
			if got.At(i, 0) != v {
				t.Fatalf("single column row %d = %g, MulVecTo says %g", i, got.At(i, 0), v)
			}
		}
	}
}
