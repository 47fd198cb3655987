package privacy

import (
	"fmt"
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/rng"
)

// addLaplaceNoiseColsReference is the column-noise loop as it ran in the
// mechanism package before it moved here as AddLaplaceNoiseCols, kept
// verbatim.
func addLaplaceNoiseColsReference(y *mat.Dense, sensitivity float64, eps Epsilon, src *rng.Source) error {
	r, cols := y.Dims()
	buf := make([]float64, r)
	for j := 0; j < cols; j++ {
		for i := 0; i < r; i++ {
			buf[i] = y.At(i, j)
		}
		if err := AddLaplaceNoise(buf, sensitivity, eps, src); err != nil {
			return err
		}
		y.SetCol(j, buf)
	}
	return nil
}

// TestColumnNoiseMatchesReference pins AddLaplaceNoiseCols to the
// reference bit for bit at B = 1 and for wider batches: column by
// column, in ascending column order, from one shared source.
func TestColumnNoiseMatchesReference(t *testing.T) {
	for _, c := range []struct{ r, cols int }{{1, 1}, {9, 1}, {9, 5}, {1, 7}} {
		for _, eps := range []Epsilon{0.1, 2} {
			name := fmt.Sprintf("%dx%d_eps%g", c.r, c.cols, float64(eps))
			y := mat.New(c.r, c.cols)
			copy(y.RawData(), rng.New(1).UniformVec(c.r*c.cols, -50, 50))
			want := y.Clone()
			got, ref := rng.New(2), rng.New(2)
			for rep := 0; rep < 2; rep++ {
				if err := AddLaplaceNoiseCols(y, 1.5, eps, got); err != nil {
					t.Fatal(err)
				}
				if err := addLaplaceNoiseColsReference(want, 1.5, eps, ref); err != nil {
					t.Fatal(err)
				}
				for i, v := range want.RawData() {
					if math.Float64bits(y.RawData()[i]) != math.Float64bits(v) {
						t.Fatalf("%s rep %d: [%d] = %v, reference %v", name, rep, i, y.RawData()[i], v)
					}
				}
			}
		}
	}
}
