package privacy

import (
	"math"
	"testing"

	"lrm/internal/rng"
)

func TestExponentialMechanismPrefersHighScores(t *testing.T) {
	src := rng.New(1)
	scores := []float64{0, 0, 10, 0}
	counts := make([]int, 4)
	const trials = 20_000
	for i := 0; i < trials; i++ {
		idx, err := ExponentialMechanism(scores, 1, 1, src)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	// Index 2 should dominate: weight ratio exp(5) ≈ 148 per competitor.
	if frac := float64(counts[2]) / trials; frac < 0.95 {
		t.Fatalf("best index chosen %v of the time, want > 0.95", frac)
	}
}

func TestExponentialMechanismDistribution(t *testing.T) {
	// With scores {0, s} the odds must be exp(ε·s/2) for sensitivity 1.
	src := rng.New(2)
	scores := []float64{0, 2}
	const eps = 1.0
	wantOdds := math.Exp(eps * 2 / 2)
	count1 := 0
	const trials = 100_000
	for i := 0; i < trials; i++ {
		idx, err := ExponentialMechanism(scores, 1, Epsilon(eps), src)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 {
			count1++
		}
	}
	gotOdds := float64(count1) / float64(trials-count1)
	if math.Abs(gotOdds-wantOdds) > 0.15*wantOdds {
		t.Fatalf("odds = %v, want ~%v", gotOdds, wantOdds)
	}
}

func TestExponentialMechanismLargeScoresStable(t *testing.T) {
	src := rng.New(3)
	idx, err := ExponentialMechanism([]float64{1e9, 1e9 + 1}, 1, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 && idx != 1 {
		t.Fatalf("index %d out of range", idx)
	}
}

func TestExponentialMechanismErrors(t *testing.T) {
	src := rng.New(4)
	if _, err := ExponentialMechanism(nil, 1, 1, src); err == nil {
		t.Fatal("empty candidates accepted")
	}
	if _, err := ExponentialMechanism([]float64{1}, 0, 1, src); err == nil {
		t.Fatal("zero sensitivity accepted")
	}
	if _, err := ExponentialMechanism([]float64{1}, 1, 0, src); err == nil {
		t.Fatal("zero epsilon accepted")
	}
}

func TestGeometricMechanismMoments(t *testing.T) {
	// Two-sided geometric with α = e^{−ε}: variance 2α/(1−α)².
	src := rng.New(5)
	const eps = 0.5
	alpha := math.Exp(-eps)
	wantVar := 2 * alpha / ((1 - alpha) * (1 - alpha))
	var sum, sumSq float64
	const trials = 200_000
	for i := 0; i < trials; i++ {
		v, err := GeometricMechanism(100, 1, Epsilon(eps), src)
		if err != nil {
			t.Fatal(err)
		}
		d := float64(v - 100)
		sum += d
		sumSq += d * d
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.05*math.Sqrt(wantVar) {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-wantVar) > 0.05*wantVar {
		t.Fatalf("variance = %v, want ~%v", variance, wantVar)
	}
}

func TestGeometricMechanismInteger(t *testing.T) {
	src := rng.New(6)
	for i := 0; i < 100; i++ {
		v, err := GeometricMechanism(7, 2, 0.1, src)
		if err != nil {
			t.Fatal(err)
		}
		_ = v // any int64 is fine; the point is it compiles to integers
	}
	if _, err := GeometricMechanism(0, 0, 1, src); err == nil {
		t.Fatal("zero sensitivity accepted")
	}
}

func TestAdvancedCompositionBeatsBasic(t *testing.T) {
	// For many small-ε mechanisms, advanced composition gives a smaller
	// total ε than the basic k·ε bound.
	const eps = 0.01
	const k = 1000
	got, deltaOut, err := AdvancedComposition(eps, 0, k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	basic := Epsilon(k * eps)
	if got >= basic {
		t.Fatalf("advanced ε' = %v not below basic %v", float64(got), float64(basic))
	}
	if deltaOut != 1e-6 {
		t.Fatalf("δ' = %v, want 1e-6", deltaOut)
	}
}

func TestAdvancedCompositionErrors(t *testing.T) {
	if _, _, err := AdvancedComposition(1, 0, 0, 1e-6); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := AdvancedComposition(1, 0, 5, 0); err == nil {
		t.Fatal("slack=0 accepted")
	}
	if _, _, err := AdvancedComposition(0, 0, 5, 1e-6); err == nil {
		t.Fatal("eps=0 accepted")
	}
}
