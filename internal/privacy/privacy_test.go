package privacy

import (
	"errors"
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/rng"
)

func TestEpsilonValidate(t *testing.T) {
	for _, e := range []Epsilon{1, 0.01, 10} {
		if err := e.Validate(); err != nil {
			t.Fatalf("Validate(%v) = %v", float64(e), err)
		}
	}
	for _, e := range []Epsilon{0, -1, Epsilon(math.Inf(1)), Epsilon(math.NaN())} {
		if err := e.Validate(); err == nil {
			t.Fatalf("Validate(%v) accepted", float64(e))
		}
	}
}

func TestBudgetSpend(t *testing.T) {
	b, err := NewBudget(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0.6); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0.1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overspend error = %v, want ErrBudgetExhausted", err)
	}
	if rem := b.Remaining(); math.Abs(float64(rem)) > 1e-9 {
		t.Fatalf("Remaining = %v, want 0", float64(rem))
	}
	if b.Total() != 1.0 {
		t.Fatalf("Total = %v", float64(b.Total()))
	}
}

func TestNewBudgetRejectsBad(t *testing.T) {
	if _, err := NewBudget(0); err == nil {
		t.Fatal("NewBudget(0) accepted")
	}
	if _, err := NewBudget(-3); err == nil {
		t.Fatal("NewBudget(-3) accepted")
	}
}

func TestSensitivityIntroExample(t *testing.T) {
	// Section 1 example: {q1,q2,q3} with q1 = q2+q3 has sensitivity 2,
	// {q2,q3} alone has sensitivity 1.
	full := mat.FromRows([][]float64{
		{1, 1, 1, 1},
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	})
	if got := Sensitivity(full); got != 2 {
		t.Fatalf("Sensitivity(full) = %v, want 2", got)
	}
	sub := mat.FromRows([][]float64{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	})
	if got := Sensitivity(sub); got != 1 {
		t.Fatalf("Sensitivity(sub) = %v, want 1", got)
	}
}

func TestSensitivitySecondIntroExample(t *testing.T) {
	// q1 = 2x_NJ + x_CA + x_WA; q2 = x_NJ + 2x_WA; q3 = x_NY + 2x_CA + 2x_WA.
	// Columns: NY, NJ, CA, WA. NOQ sensitivity is 5 (column WA: 1+2+2).
	w := mat.FromRows([][]float64{
		{0, 2, 1, 1},
		{0, 1, 0, 2},
		{1, 0, 2, 2},
	})
	if got := Sensitivity(w); got != 5 {
		t.Fatalf("Sensitivity = %v, want 5", got)
	}
}

func TestLaplaceMechanismUnbiased(t *testing.T) {
	src := rng.New(1)
	exact := []float64{100, -50, 0}
	const trials = 30_000
	sums := make([]float64, 3)
	for i := 0; i < trials; i++ {
		noisy, err := LaplaceMechanism(exact, 1, 1, src)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range noisy {
			sums[j] += v
		}
	}
	for j, want := range exact {
		mean := sums[j] / trials
		if math.Abs(mean-want) > 0.1 {
			t.Fatalf("mean[%d] = %v, want ~%v", j, mean, want)
		}
	}
}

func TestLaplaceMechanismEmpiricalSSE(t *testing.T) {
	src := rng.New(2)
	const m = 64
	exact := make([]float64, m)
	const sens = 3.0
	const eps = Epsilon(0.5)
	want := LaplaceExpectedSSE(m, sens, eps)
	var total float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		noisy, err := LaplaceMechanism(exact, sens, eps, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range noisy {
			total += v * v
		}
	}
	got := total / trials
	if math.Abs(got-want) > 0.08*want {
		t.Fatalf("empirical SSE = %v, analytic %v", got, want)
	}
}

func TestLaplaceMechanismRejectsBadInput(t *testing.T) {
	src := rng.New(3)
	if _, err := LaplaceMechanism([]float64{1}, 1, 0, src); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := LaplaceMechanism([]float64{1}, -1, 1, src); err == nil {
		t.Fatal("negative sensitivity accepted")
	}
}

func TestLaplaceMechanismDoesNotMutateInput(t *testing.T) {
	src := rng.New(4)
	exact := []float64{5, 6}
	if _, err := LaplaceMechanism(exact, 1, 1, src); err != nil {
		t.Fatal(err)
	}
	if exact[0] != 5 || exact[1] != 6 {
		t.Fatal("input mutated")
	}
}
