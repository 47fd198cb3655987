package mat

import (
	"fmt"
	"testing"
)

// TestGEMMDirectBitIdentity pins the pack-free contract: on every kernel
// family this host enables, a small serial product whose right operand
// the kernels read in place (gemmDirect, reached through mulInto and
// mulAtBInto) equals the packed gemmMain product bit for bit, for plain
// and transposed-A views. The shapes cover the 8-row blocks and their
// overlapped-rerun tail, the 4-row fall-through, the scalar rows below 4
// rows, k = 1, and the full gemmTileRows height.
func TestGEMMDirectBitIdentity(t *testing.T) {
	saved := gemmFamilySnapshot()
	defer saved.restore()

	for _, fam := range KernelFamilies() {
		if err := SetKernelFamily("", fam); err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 3, 4, 7, 8, 10, 64} {
			for _, n := range []int{8, 128} {
				for _, k := range []int{1, 10, 64} {
					name := fmt.Sprintf("%s/%dx%dx%d", fam, m, k, n)
					b := randDenseSeed(t, k, n, int64(7*n+k))

					a := randDenseSeed(t, m, k, int64(11*m+k))
					want := New(m, n)
					gemmMain(want, m, n, k, aView{data: a.data, row: a.cols, k: 1},
						b.data, b.cols, 1, false, false, nil)
					// The pack-free path needs an assembly family; the
					// scalar kernels always pack.
					got := New(m, n)
					direct := gemmDirect(got, m, n, k, aView{data: a.data, row: a.cols, k: 1}, b.data)
					if direct != gemmUseAsm {
						t.Fatalf("%s: gemmDirect took the pack-free path = %v, want %v", name, direct, gemmUseAsm)
					}
					if direct && !got.Equal(want) {
						t.Fatalf("%s: pack-free A·B differs bitwise from the packed product", name)
					}
					if via := MulTo(New(m, n), a, b); !via.Equal(want) {
						t.Fatalf("%s: MulTo differs bitwise from the packed product", name)
					}

					at := randDenseSeed(t, k, m, int64(13*m+k))
					wantT := New(m, n)
					gemmMain(wantT, m, n, k, aView{data: at.data, row: 1, k: at.cols},
						b.data, b.cols, 1, false, false, nil)
					if via := MulAtBTo(New(m, n), at, b); !via.Equal(wantT) {
						t.Fatalf("%s: pack-free Aᵀ·B differs bitwise from the packed product", name)
					}
				}
			}
		}
	}
}

// TestGEMMDirectFallsBackToPacking pins the pack-free path's gate: a
// partial trailing panel (n % gemmNR ≠ 0), more rows than one scheduler
// tile (m > gemmTileRows), and a product large enough for the pool all
// take the packed gemmMain path.
func TestGEMMDirectFallsBackToPacking(t *testing.T) {
	cases := []struct{ m, n, k int }{{10, 12, 10}, {10, 130, 10}, {65, 128, 10}, {65, 8, 1}}
	for _, c := range cases {
		a := randDenseSeed(t, c.m, c.k, 1)
		b := randDenseSeed(t, c.k, c.n, 2)
		if gemmDirect(New(c.m, c.n), c.m, c.n, c.k, aView{data: a.data, row: a.cols, k: 1}, b.data) {
			t.Errorf("%dx%dx%d: gemmDirect ran pack-free, want the packed path", c.m, c.k, c.n)
		}
	}
	saved := setParallelThreshold(1)
	defer setParallelThreshold(saved)
	a := randDenseSeed(t, 10, 10, 3)
	b := randDenseSeed(t, 10, 128, 4)
	if gemmDirect(New(10, 128), 10, 128, 10, aView{data: a.data, row: a.cols, k: 1}, b.data) {
		t.Error("parallel-sized product ran pack-free, want the packed path")
	}
}
