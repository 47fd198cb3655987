package mat

import (
	"testing"
)

// TestMulColsToColumnBitIdentity is the load-bearing guarantee of
// MulColsTo: every column of the batched product equals the MulVecTo
// matrix-vector product of that column, bit for bit, across shapes that
// exercise every scalar kernel (full 4×8 blocks, the 1×8 short-matrix
// row kernel, partial trailing panels, single columns — which run as
// MulVecTo itself) on both the serial and the pool-scheduled dispatch
// path.
func TestMulColsToColumnBitIdentity(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 1},     // single column: the MulVecTo branch
		{300, 257, 1}, // single column large enough for the pooled mat-vec
		{2, 9, 5},     // fewer rows than gemmMR, partial panel
		{4, 8, 8},     // exactly one full panel of 4×8 blocks
		{7, 13, 11},   // row tail + partial trailing panel
		{64, 77, 64},
		{65, 129, 70}, // odd everything
	}
	for _, sh := range shapes {
		a := randDenseSeed(t, sh.m, sh.k, int64(100+3*sh.m+5*sh.k+7*sh.n))
		b := randDenseSeed(t, sh.k, sh.n, int64(200+11*sh.m+13*sh.k+17*sh.n))
		for _, threshold := range []int64{1 << 62, 0} { // force serial, then parallel
			old := setParallelThreshold(threshold)
			got := MulColsTo(New(sh.m, sh.n), a, b)
			setParallelThreshold(old)
			col := make([]float64, sh.k)
			want := make([]float64, sh.m)
			for j := 0; j < sh.n; j++ {
				for i := 0; i < sh.k; i++ {
					col[i] = b.At(i, j)
				}
				MulVecTo(want, a, col)
				for i := 0; i < sh.m; i++ {
					if got.At(i, j) != want[i] {
						t.Fatalf("%d×%d·%d×%d (threshold %d): column %d row %d = %g, MulVecTo says %g",
							sh.m, sh.k, sh.k, sh.n, threshold, j, i, got.At(i, j), want[i])
					}
				}
			}
		}
	}
}

// TestMulColsToMatchesMul checks the batched product agrees with the
// default GEMM to numerical accuracy (they may differ in the last ulps on
// FMA hardware, never more).
func TestMulColsToMatchesMul(t *testing.T) {
	a := randDenseSeed(t, 33, 47, 301)
	b := randDenseSeed(t, 47, 29, 302)
	got := MulCols(a, b)
	want := Mul(a, b)
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("MulCols diverges from Mul beyond rounding")
	}
}

// TestMulColsToValidation pins the shape and aliasing panics.
func TestMulColsToValidation(t *testing.T) {
	a, b := New(3, 4), New(4, 2)
	mulColsMustPanic(t, "dim mismatch", func() { MulColsTo(New(3, 2), a, New(5, 2)) })
	mulColsMustPanic(t, "bad dst shape", func() { MulColsTo(New(2, 2), a, b) })
	mulColsMustPanic(t, "aliased dst", func() {
		d := NewFromData(3, 2, a.RawData()[:6])
		MulColsTo(d, a, b)
	})
}

func mulColsMustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}
