package mat

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// naiveMul is the oracle: the textbook triple loop, no blocking, no
// packing, no fused operations.
func naiveMul(a, b *Dense) *Dense {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for t := 0; t < a.cols; t++ {
				s += a.data[i*a.cols+t] * b.data[t*b.cols+j]
			}
			out.data[i*b.cols+j] = s
		}
	}
	return out
}

// approxEqual compares against the oracle with a tolerance scaled to the
// summation length: the blocked kernels accumulate in a different order
// (and fuse multiply-adds on AVX2 hardware), so exact equality with the
// naive loop is not expected — only agreement to roundoff.
func approxEqual(t *testing.T, name string, got, want *Dense, k int) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: got %d×%d, want %d×%d", name, got.rows, got.cols, want.rows, want.cols)
	}
	tol := 1e-13 * float64(k+1)
	for i, v := range want.data {
		scale := math.Abs(v)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got.data[i]-v) > tol*scale {
			t.Fatalf("%s: element %d = %v, oracle %v", name, i, got.data[i], v)
		}
	}
}

// gemmShapes crosses the dimension edge cases: micro-kernel multiples,
// odd and prime sizes, single rows/columns, rank-1 inner dimensions, and
// tall/wide panels that exercise partial tiles in every direction.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 1, 7},
	{7, 1, 1},
	{1, 5, 1},
	{4, 8, 8},
	{8, 8, 8},
	{3, 2, 5},
	{5, 4, 3},
	{7, 7, 7},
	{9, 13, 11},
	{17, 23, 19},
	{31, 1, 31},
	{1, 64, 64},
	{64, 64, 1},
	{33, 29, 65},
	{130, 5, 9},
	{9, 5, 130},
	{66, 70, 62},
}

// TestGEMMOracle checks every product kernel against the naive triple
// loop across the shape grid, on both the assembly and the scalar
// micro-kernel paths, with destinations pre-filled with garbage (the
// kernels overwrite rather than accumulate).
func TestGEMMOracle(t *testing.T) {
	type mode struct{ asm, avx512 bool }
	modes := []mode{{false, false}}
	if gemmUseAsm {
		modes = append(modes, mode{true, false})
	}
	if gemmUseAVX512 {
		modes = append(modes, mode{true, true})
	}
	defer saveKernelGates()()
	for _, md := range modes {
		gemmUseAsm, gemmUseAVX512 = md.asm, md.avx512
		for _, sh := range gemmShapes {
			name := fmt.Sprintf("asm=%v/avx512=%v/%dx%dx%d", md.asm, md.avx512, sh.m, sh.k, sh.n)
			a := randDenseSeed(t, sh.m, sh.k, int64(3*sh.m+5*sh.k+7*sh.n))
			b := randDenseSeed(t, sh.k, sh.n, int64(11*sh.m+13*sh.k+17*sh.n))
			garbage := func(r, c int) *Dense {
				g := New(r, c)
				for i := range g.data {
					g.data[i] = math.Inf(1)
				}
				return g
			}

			approxEqual(t, name+"/MulTo", MulTo(garbage(sh.m, sh.n), a, b), naiveMul(a, b), sh.k)

			bt := b.T()
			approxEqual(t, name+"/MulABt", MulABt(a, bt), naiveMul(a, b), sh.k)
			approxEqual(t, name+"/MulABtTo", MulABtTo(garbage(sh.m, sh.n), a, bt), naiveMul(a, b), sh.k)
			at := a.T()
			approxEqual(t, name+"/MulAtB", MulAtB(at, b), naiveMul(a, b), sh.k)
			approxEqual(t, name+"/Gram", GramTo(garbage(sh.k, sh.k), a), naiveMul(at, a), sh.m)
			approxEqual(t, name+"/GramT", GramTTo(garbage(sh.m, sh.m), a), naiveMul(a, at), sh.k)
		}
	}
}

// runTilesWithClaimants executes the same fixed tile grid with exactly n
// concurrent claimants — the moral equivalent of running the pool at
// GOMAXPROCS=n — so tests can prove scheduling does not leak into
// results even on single-CPU machines.
func runTilesWithClaimants(claimants, tiles int, fn func(int)) {
	task := &poolTask{fn: fn, tiles: int64(tiles), done: make(chan struct{}, 1)}
	task.pending.Store(int64(tiles))
	var wg sync.WaitGroup
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task.run()
		}()
	}
	wg.Wait()
}

// TestGEMMSchedulingInvariance pins the bit-identical guarantee: the same
// product computed with 1, 2, 3 and 8 concurrent tile claimants must
// produce exactly the same bits, because the tile grid and per-tile
// k-order are pure functions of the shapes. This is the GOMAXPROCS=1/2/N
// acceptance check, claimant count playing the role of worker count.
func TestGEMMSchedulingInvariance(t *testing.T) {
	for _, sh := range []struct{ m, k, n int }{{96, 64, 96}, {130, 70, 66}, {64, 128, 256}} {
		a := randDenseSeed(t, sh.m, sh.k, int64(1000+sh.m))
		b := randDenseSeed(t, sh.k, sh.n, int64(2000+sh.n))
		nPanels := (sh.n + gemmNR - 1) / gemmNR
		packed := getPackBuf(nPanels * sh.k * gemmNR)
		for p := 0; p < nPanels; p++ {
			packPanel(packed, b.data, sh.k, sh.n, b.cols, 1, p)
		}
		tilePanels := gemmTileCols / gemmNR
		tR := (sh.m + gemmTileRows - 1) / gemmTileRows
		tC := (nPanels + tilePanels - 1) / tilePanels
		av := aView{data: a.data, row: a.cols, k: 1}

		// Every kernel family available on this host runs the same grid:
		// the scalar kernels, the 4-row asm tier, and (on AVX-512
		// hardware) the 8-row tier with its 4-row fallback.
		sels := []kernelSel{{}}
		if gemmUseAsm {
			sels = append(sels, famKernels(gemmArchFamily))
		}
		if gemmUseAVX512 {
			sels = append(sels, famKernels(famAVX512))
		}
		for _, sel := range sels {
			ref := New(sh.m, sh.n)
			for tl := 0; tl < tR*tC; tl++ {
				gemmTileRun(tl, ref.data, ref.cols, sh.m, sh.n, sh.k, av, packed, false, tC, sel, nil)
			}
			for _, claimants := range []int{1, 2, 3, 8} {
				got := New(sh.m, sh.n)
				runTilesWithClaimants(claimants, tR*tC, func(tl int) {
					gemmTileRun(tl, got.data, got.cols, sh.m, sh.n, sh.k, av, packed, false, tC, sel, nil)
				})
				if !got.Equal(ref) {
					t.Fatalf("%dx%dx%d: %d claimants disagree bitwise with serial grid", sh.m, sh.k, sh.n, claimants)
				}
			}
		}
		putPackBuf(packed)

		// The public dispatcher must agree with itself across the
		// serial/parallel threshold too.
		saved := setParallelThreshold(1)
		viaPool := Mul(a, b)
		setParallelThreshold(1 << 62)
		viaSerial := Mul(a, b)
		setParallelThreshold(saved)
		if !viaPool.Equal(viaSerial) {
			t.Fatalf("%dx%dx%d: pool and serial dispatch disagree bitwise", sh.m, sh.k, sh.n)
		}
	}
}

// TestGEMMPoolHammer drives many concurrent products of every kernel
// through the persistent pool with the threshold forced to 1 (every
// product schedules tiles). Run under -race it proves tiles never write
// across their bounds and the pack free-list is properly synchronized.
func TestGEMMPoolHammer(t *testing.T) {
	saved := setParallelThreshold(1)
	defer setParallelThreshold(saved)

	a := randDenseSeed(t, 70, 48, 71)
	b := randDenseSeed(t, 48, 66, 72)
	atc := a.T().Clone() // 48×70, so MulAtB(atc, b) is the 70×66 product
	wantMul := Mul(a, b)
	wantAtB := MulAtB(atc, b)
	wantABt := MulABt(a, b.T().Clone())
	wantGram := Gram(a)
	wantGramT := GramTTo(New(a.Rows(), a.Rows()), a)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := New(70, 66)
			for i := 0; i < 6; i++ {
				switch (g + i) % 5 {
				case 0:
					if !MulTo(dst, a, b).Equal(wantMul) {
						t.Error("hammer: MulTo mismatch")
						return
					}
				case 1:
					if !MulAtB(atc, b).Equal(wantAtB) {
						t.Error("hammer: MulAtB mismatch")
						return
					}
				case 2:
					if !MulABt(a, b.T().Clone()).Equal(wantABt) {
						t.Error("hammer: MulABt mismatch")
						return
					}
				case 3:
					if !Gram(a).Equal(wantGram) {
						t.Error("hammer: Gram mismatch")
						return
					}
				case 4:
					if !GramTTo(New(a.Rows(), a.Rows()), a).Equal(wantGramT) {
						t.Error("hammer: GramT mismatch")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
