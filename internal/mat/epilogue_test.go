package mat

import (
	"math"
	"sync"
	"testing"
)

// TestEpilogueExactlyOnce proves the MulEpiTo contract that the
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
			MulEpiTo(New(sh.m, sh.n), a, b, func(r0, r1, c0, c1 int) {
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
		MulEpiTo(dst, a, b, func(r0, r1, c0, c1 int) {
			for i := r0; i < r1; i++ {
				for j := c0; j < c1; j++ {
					dst.Set(i, j, dst.At(i, j)+add.At(i, j))
				}
			}
		})
		return dst
	}

	// Unfused reference: full product, then a second sweep.
	want := MulEpiTo(New(m, n), a, b, nil)
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
		MulEpiTo(New(8, n), a, b, nil)
		if d := FusedEpilogueRuns() - before; d != 0 {
			t.Fatalf("n=%d: MulEpiTo without an epilogue bumped the fused-epilogue counter by %d", n, d)
		}
		var rects [][4]int
		got := MulEpiTo(New(8, n), a, b, func(r0, r1, c0, c1 int) {
			rects = append(rects, [4]int{r0, r1, c0, c1})
		})
		if d := FusedEpilogueRuns() - before; d != 1 {
			t.Fatalf("n=%d: MulEpiTo with an epilogue bumped the fused-epilogue counter by %d, want 1", n, d)
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

// TestMulEpiToMatchesMul pins what the batched answer paths compute: a
// multi-column MulEpiTo is bitwise the MulTo product (the same GEMM
// kernel, tile grid and k-order), a single column is bitwise the
// MulVecTo mat-vec, and every column of a wider product equals the
// MulVecTo of that column to within floating-point rounding, on both the
// serial and the pool-scheduled path. The shapes cover full 4×8 and 8×8
// blocks, the 1×8 short-matrix row kernel, partial trailing panels and
// single columns.
func TestMulEpiToMatchesMul(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 1},     // single column: the MulVecTo branch
		{300, 257, 1}, // single column large enough for the pooled mat-vec
		{2, 9, 5},     // fewer rows than gemmMR, partial panel
		{4, 8, 8},     // exactly one full panel of 4×8 blocks
		{7, 13, 11},   // row tail + partial trailing panel
		{33, 47, 29},
		{64, 77, 64},
		{65, 129, 70}, // odd everything
	}
	for _, sh := range shapes {
		a := randDenseSeed(t, sh.m, sh.k, int64(100+3*sh.m+5*sh.k+7*sh.n))
		b := randDenseSeed(t, sh.k, sh.n, int64(200+11*sh.m+13*sh.k+17*sh.n))
		for _, threshold := range []int64{1 << 62, 0} { // force serial, then parallel
			old := setParallelThreshold(threshold)
			got := MulEpiTo(New(sh.m, sh.n), a, b, nil)
			viaMul := MulTo(New(sh.m, sh.n), a, b)
			setParallelThreshold(old)
			if sh.n > 1 && !got.Equal(viaMul) {
				t.Fatalf("%dx%dx%d (threshold %d): MulEpiTo differs bitwise from MulTo", sh.m, sh.k, sh.n, threshold)
			}
			col := make([]float64, sh.k)
			want := make([]float64, sh.m)
			for j := 0; j < sh.n; j++ {
				for i := 0; i < sh.k; i++ {
					col[i] = b.At(i, j)
				}
				MulVecTo(want, a, col)
				for i := 0; i < sh.m; i++ {
					g, w := got.At(i, j), want[i]
					if sh.n == 1 && g != w {
						t.Fatalf("%dx%dx1 (threshold %d): row %d = %g, MulVecTo says %g", sh.m, sh.k, threshold, i, g, w)
					}
					if math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
						t.Fatalf("%dx%dx%d (threshold %d): column %d row %d = %g, MulVecTo says %g",
							sh.m, sh.k, sh.n, threshold, j, i, g, w)
					}
				}
			}
		}
	}
}

// TestMulEpiToValidation pins the shape and aliasing panics.
func TestMulEpiToValidation(t *testing.T) {
	a, b := New(3, 4), New(4, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("dim mismatch", func() { MulEpiTo(New(3, 2), a, New(5, 2), nil) })
	mustPanic("bad dst shape", func() { MulEpiTo(New(2, 2), a, b, nil) })
	mustPanic("dst aliases a", func() { MulEpiTo(NewFromData(3, 2, a.RawData()[:6]), a, b, nil) })
	mustPanic("dst aliases b", func() { MulEpiTo(NewFromData(3, 2, b.RawData()[:6]), a, b, nil) })
}
