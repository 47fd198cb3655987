package mat

import (
	"sync"
	"testing"

	"lrm/internal/rng"
)

func randDenseSeed(t testing.TB, r, c int, seed int64) *Dense {
	t.Helper()
	src := rng.New(seed)
	m := New(r, c)
	for i := range m.data {
		m.data[i] = src.Normal()
	}
	return m
}

// TestInPlaceMatchAllocating checks every *To kernel against its
// allocating counterpart, including destinations pre-filled with garbage
// (the workspace-reuse scenario).
func TestInPlaceMatchAllocating(t *testing.T) {
	a := randDenseSeed(t, 7, 5, 1)
	b := randDenseSeed(t, 7, 5, 2)
	p := randDenseSeed(t, 5, 9, 3)
	garbage := func(r, c int) *Dense {
		g := New(r, c)
		for i := range g.data {
			g.data[i] = 1e30
		}
		return g
	}
	cases := []struct {
		name string
		want *Dense
		got  *Dense
	}{
		{"AddTo", Add(a, b), AddTo(garbage(7, 5), a, b)},
		{"SubTo", Sub(a, b), SubTo(garbage(7, 5), a, b)},
		{"ScaleTo", Scale(2.5, a), ScaleTo(garbage(7, 5), 2.5, a)},
		{"AddScaledTo", AddScaledTo(New(7, 5), a, -1.25, b), AddScaledTo(garbage(7, 5), a, -1.25, b)},
		{"ElemMulTo", ElemMulTo(New(7, 5), a, b), ElemMulTo(garbage(7, 5), a, b)},
		{"TransposeTo", a.T(), TransposeTo(garbage(5, 7), a)},
		{"MulTo", Mul(a, p), MulTo(garbage(7, 9), a, p)},
		{"MulABtTo", MulABt(a, b), MulABtTo(garbage(7, 7), a, b)},
		{"MulAtBTo", MulAtB(a, b), MulAtBTo(garbage(5, 5), a, b)},
		{"GramTo", Gram(a), GramTo(garbage(5, 5), a)},
		{"GramTTo", GramTTo(New(7, 7), a), GramTTo(garbage(7, 7), a)},
	}
	for _, tc := range cases {
		if !tc.want.Equal(tc.got) {
			t.Errorf("%s disagrees with allocating version", tc.name)
		}
	}

	x := rng.New(4).NormalVec(5, 1)
	want := MulVec(a, x)
	got := MulVecTo(make([]float64, 7), a, x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("MulVecTo[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	xt := rng.New(5).NormalVec(7, 1)
	wantT := MulVecT(a, xt)
	gotT := MulVecTTo(make([]float64, 5), a, xt)
	for i := range wantT {
		if wantT[i] != gotT[i] {
			t.Fatalf("MulVecTTo[%d] = %v, want %v", i, gotT[i], wantT[i])
		}
	}
}

// TestInPlaceElementwiseAliasing checks that the element-wise kernels
// accept dst aliasing an operand.
func TestInPlaceElementwiseAliasing(t *testing.T) {
	a := randDenseSeed(t, 4, 6, 11)
	b := randDenseSeed(t, 4, 6, 12)
	want := Add(a, b)
	got := a.Clone()
	AddTo(got, got, b)
	if !want.Equal(got) {
		t.Error("AddTo with dst aliasing a disagrees")
	}
	want = AddScaledTo(New(4, 6), a, 3, b)
	got = a.Clone()
	AddScaledTo(got, got, 3, b)
	if !want.Equal(got) {
		t.Error("AddScaledTo with dst aliasing a disagrees")
	}
	want = Scale(-2, a)
	got = a.Clone()
	ScaleTo(got, -2, got)
	if !want.Equal(got) {
		t.Error("ScaleTo in place disagrees")
	}
}

// TestMulToAliasPanics is the regression test for the aliasing guard:
// products that accumulate into dst must refuse destinations sharing
// storage with an operand instead of silently corrupting them.
func TestMulToAliasPanics(t *testing.T) {
	square := randDenseSeed(t, 6, 6, 21)
	other := randDenseSeed(t, 6, 6, 22)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: aliased destination did not panic", name)
			}
		}()
		f()
	}
	mustPanic("MulTo dst=a", func() { MulTo(square, square, other) })
	mustPanic("MulTo dst=b", func() { MulTo(square, other, square) })
	// Two distinct headers over one backing slice must be caught too.
	view := NewFromData(6, 6, square.RawData())
	mustPanic("MulTo dst views a", func() { MulTo(view, square, other) })
	// Offset views with different first elements but overlapping ranges.
	offDst := NewFromData(2, 2, square.RawData()[1:5])
	offA := NewFromData(2, 2, square.RawData()[0:4])
	small := randDenseSeed(t, 2, 2, 23)
	mustPanic("MulTo dst offset-overlaps a", func() { MulTo(offDst, offA, small) })
	mustPanic("MulABtTo dst=a", func() { MulABtTo(square, square, other) })
	mustPanic("MulAtBTo dst=b", func() { MulAtBTo(square, other, square) })
	mustPanic("GramTo dst=a", func() { GramTo(square, square) })
	mustPanic("GramTTo dst=a", func() { GramTTo(square, square) })
	mustPanic("TransposeTo dst=a", func() { TransposeTo(square, square) })
}

// TestMulSerialParallelBitForBit pins the boundary behavior of the row
// scheduler: the same product computed just below, exactly at, and just
// above parallelThreshold must agree bit-for-bit with the forced-serial
// path. The kernel only partitions output rows — each row is accumulated
// by exactly one goroutine in the same order as the serial loop — so
// equality is exact, not approximate.
func TestMulSerialParallelBitForBit(t *testing.T) {
	saved := setParallelThreshold(1)
	defer setParallelThreshold(saved)

	// 128×128 · 128×128 is exactly 2²¹ multiply-adds = parallelThreshold.
	for _, n := range []int{127, 128, 129} {
		a := randDenseSeed(t, n, n, int64(100+n))
		b := randDenseSeed(t, n, n, int64(200+n))

		setParallelThreshold(1) // force the parallel path
		viaParallel := Mul(a, b)
		gramParallel := GramTTo(New(a.Rows(), a.Rows()), a)
		atbParallel := MulAtB(a, b)
		abtParallel := MulABt(a, b)

		setParallelThreshold(1 << 62) // force the serial path
		viaSerial := Mul(a, b)
		gramSerial := GramTTo(New(a.Rows(), a.Rows()), a)
		atbSerial := MulAtB(a, b)
		abtSerial := MulABt(a, b)

		setParallelThreshold(saved) // default dispatch straddles the boundary
		viaDefault := Mul(a, b)

		if !viaParallel.Equal(viaSerial) {
			t.Errorf("n=%d: parallel and serial Mul differ", n)
		}
		if !viaDefault.Equal(viaSerial) {
			t.Errorf("n=%d: default-dispatch and serial Mul differ", n)
		}
		if !gramParallel.Equal(gramSerial) {
			t.Errorf("n=%d: parallel and serial GramT differ", n)
		}
		if !atbParallel.Equal(atbSerial) {
			t.Errorf("n=%d: parallel and serial MulAtB differ", n)
		}
		if !abtParallel.Equal(abtSerial) {
			t.Errorf("n=%d: parallel and serial MulABt differ", n)
		}
	}
}

// TestParallelKernelsConcurrent hammers the forking kernels from many
// goroutines sharing read-only operands; run under -race it proves the
// row partitioning never writes across worker boundaries.
func TestParallelKernelsConcurrent(t *testing.T) {
	saved := setParallelThreshold(1) // every product goes through the pool
	defer setParallelThreshold(saved)

	a := randDenseSeed(t, 64, 48, 31)
	b := randDenseSeed(t, 48, 56, 32)
	wantMul := Mul(a, b)
	wantGram := GramTTo(New(a.Rows(), a.Rows()), a)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := Mul(a, b); !got.Equal(wantMul) {
					t.Error("concurrent Mul mismatch")
					return
				}
				dst := New(64, 56)
				if got := MulTo(dst, a, b); !got.Equal(wantMul) {
					t.Error("concurrent MulTo mismatch")
					return
				}
				if got := GramTTo(New(a.Rows(), a.Rows()), a); !got.Equal(wantGram) {
					t.Error("concurrent GramT mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolveRightSPDTo checks the allocation-free solve against garbage
// in dst and lwork and with dst aliasing b (the ALM's B-update
// overwrites its right-hand side in place).
func TestSolveRightSPDTo(t *testing.T) {
	g := randDenseSeed(t, 12, 8, 41)
	spd := Gram(g) // 8×8 SPD
	b := randDenseSeed(t, 5, 8, 42)
	want := New(5, 8)
	if err := SolveRightSPDTo(want, b, spd, New(8, 8)); err != nil {
		t.Fatal(err)
	}
	if !Mul(want, spd).EqualApprox(b, 1e-8) {
		t.Fatal("X·A != B")
	}
	dst, lwork := New(5, 8), New(8, 8)
	for _, m := range []*Dense{dst, lwork} {
		for i := range m.RawData() {
			m.RawData()[i] = 1e30
		}
	}
	if err := SolveRightSPDTo(dst, b, spd, lwork); err != nil {
		t.Fatal(err)
	}
	if !want.Equal(dst) {
		t.Error("SolveRightSPDTo into garbage buffers disagrees")
	}
	inPlace := b.Clone()
	if err := SolveRightSPDTo(inPlace, inPlace, spd, New(8, 8)); err != nil {
		t.Fatal(err)
	}
	if !want.Equal(inPlace) {
		t.Error("SolveRightSPDTo in place disagrees")
	}
	// Partial overlap is neither a fresh dst nor an in-place solve: the
	// skipped copy would read half-corrupted rows, so it must panic
	// rather than return garbage.
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	backing := make([]float64, 6*8)
	full := NewFromData(5, 8, backing[:5*8])
	shifted := NewFromData(5, 8, backing[8:])
	mustPanic("SolveRightSPDTo partial overlap", func() {
		_ = SolveRightSPDTo(shifted, full, spd, New(8, 8))
	})
	mustPanic("SolveRightSPDTo lwork aliases a", func() {
		_ = SolveRightSPDTo(New(5, 8), b, spd, spd)
	})
	// lwork carved from the same workspace backing as b (or dst) — the
	// factorization would scribble over rows mid-solve.
	shared := make([]float64, 104)
	bAlias := NewFromData(5, 8, shared[:40])
	copy(bAlias.RawData(), b.RawData())
	mustPanic("SolveRightSPDTo lwork overlaps b", func() {
		_ = SolveRightSPDTo(New(5, 8), bAlias, spd, NewFromData(8, 8, shared[20:84]))
	})
	dstShared := make([]float64, 104)
	mustPanic("SolveRightSPDTo lwork overlaps dst", func() {
		_ = SolveRightSPDTo(NewFromData(5, 8, dstShared[:40]), b, spd, NewFromData(8, 8, dstShared[20:84]))
	})
}

// TestLambdaMaxSymBuf checks the buffered power iteration does not
// depend on what its scratch vectors held before the call.
func TestLambdaMaxSymBuf(t *testing.T) {
	g := randDenseSeed(t, 10, 6, 51)
	spd := Gram(g)
	want := LambdaMaxSymBuf(spd, 200, make([]float64, 6), make([]float64, 6))
	x, y := make([]float64, 6), make([]float64, 6)
	for i := range x {
		x[i], y[i] = 1e30, -1e30
	}
	if got := LambdaMaxSymBuf(spd, 200, x, y); want != got {
		t.Errorf("LambdaMaxSymBuf with dirty scratch = %v, want %v", got, want)
	}
}

// TestTraceMul checks tr(a·b) against the materialized product.
func TestTraceMul(t *testing.T) {
	a := randDenseSeed(t, 6, 9, 61)
	b := randDenseSeed(t, 9, 6, 62)
	want := Trace(Mul(a, b))
	got := TraceMul(a, b)
	if diff := want - got; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("TraceMul = %v, want %v", got, want)
	}
}
