package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinyConfig keeps unit tests fast: the bench grid, one dataset, 2 trials.
func tinyConfig() Config {
	return Config{Scale: ScaleBench, Trials: 2, Seed: 42, Dataset: "socialnetwork"}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run(1, tinyConfig()); err == nil {
		t.Fatal("figure 1 accepted")
	}
	if _, err := Run(10, tinyConfig()); err == nil {
		t.Fatal("figure 10 accepted")
	}
}

func TestFiguresListMatchesRun(t *testing.T) {
	for _, f := range Figures() {
		switch f {
		case 2, 3, 4, 5, 6, 7, 8, 9:
		default:
			t.Fatalf("unexpected figure %d", f)
		}
	}
	if len(Figures()) != 8 {
		t.Fatalf("Figures() has %d entries", len(Figures()))
	}
}

func TestFigure9Rows(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(cfg.sRatios()) * 4 // 4 mechanisms, 1 dataset
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.AvgSqErr <= 0 {
			t.Fatalf("non-positive error in row %+v", r)
		}
		if r.Figure != "Fig9" || r.Param != "s_ratio" {
			t.Fatalf("mislabeled row %+v", r)
		}
	}
}

func TestFigure4IncludesMMOnlySmallDomains(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := float64(cfg.mmMaxDomain())
	sawMM := false
	for _, r := range rows {
		if r.Mechanism == "MM" {
			sawMM = true
			if r.Value > cap {
				t.Fatalf("MM run at n=%g beyond cap %g", r.Value, cap)
			}
		}
	}
	if !sawMM {
		t.Fatal("MM missing entirely")
	}
}

func TestFigure2GammaSweep(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads × |gammaGrid| × 3 epsilons.
	want := 3 * len(cfg.gammaGrid()) * 3
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	// Error must be quadratic in 1/ε: fix workload+gamma, compare eps
	// 1 vs 0.1 — the expected ratio is ~100 (Laplace part dominates with
	// tight default gamma; allow slack for the structural term and
	// Monte-Carlo noise at 2 trials).
	byKey := map[string]map[float64]float64{}
	for _, r := range rows {
		if r.Value != 1e-4 || r.Workload != "WDiscrete" {
			continue
		}
		k := r.Workload
		if byKey[k] == nil {
			byKey[k] = map[float64]float64{}
		}
		byKey[k][r.Epsilon] = r.AvgSqErr
	}
	for k, m := range byKey {
		ratio := m[0.01] / m[1]
		if ratio < 100 {
			t.Fatalf("%s: error(0.01)/error(1) = %v, want >> 100", k, ratio)
		}
	}
}

func TestReproducibleRows(t *testing.T) {
	cfg := tinyConfig()
	a, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("row count mismatch")
	}
	for i := range a {
		if a[i].AvgSqErr != b[i].AvgSqErr {
			t.Fatalf("row %d differs: %v vs %v", i, a[i].AvgSqErr, b[i].AvgSqErr)
		}
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	rows := []Row{
		{Figure: "Fig4", Dataset: "NetTrace", Workload: "WDiscrete", Mechanism: "LM",
			Param: "n", Value: 128, Epsilon: 0.1, AvgSqErr: 123.4, Seconds: 0.01},
		{Figure: "Fig4", Dataset: "NetTrace", Workload: "WDiscrete", Mechanism: "LRM",
			Param: "n", Value: 128, Epsilon: 0.1, AvgSqErr: 45.6, Seconds: 1.2},
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "LRM") || !strings.Contains(out, "NetTrace") {
		t.Fatalf("table missing content:\n%s", out)
	}
	buf.Reset()
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("csv has %d lines, want 3", lines)
	}
}

func TestDefaultParamsMentionsAllParameters(t *testing.T) {
	s := DefaultParams(Config{})
	for _, frag := range []string{"gamma", "n", "m", "s", "eps"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("Table 1 output missing %q:\n%s", frag, s)
		}
	}
}

func TestScaleString(t *testing.T) {
	if ScaleBench.String() != "bench" || ScaleLight.String() != "light" || ScalePaper.String() != "paper" {
		t.Fatal("Scale.String wrong")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale empty")
	}
}

func TestBadDatasetName(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dataset = "nope"
	if _, err := Figure4(cfg); err == nil {
		t.Fatal("bad dataset accepted")
	}
}

func TestAblationsProduceRows(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ablationKinds) * len(ablationVariants(cfg.lrmOptions())); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	names := map[string]bool{}
	for _, r := range rows {
		if r.AvgSqErr <= 0 || r.Seconds < 0 {
			t.Fatalf("bad row %+v", r)
		}
		names[r.Mechanism] = true
	}
	for _, want := range []string{"nesterov", "plain-pg", "beta-fixed10", "restarts-4"} {
		if !names[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
	// Decompose always considers the identity strategy, so no variant
	// may exceed the NOD baseline.
	for _, r := range rows {
		nod, err := AblationBaselineSSE(cfg, r.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if r.AvgSqErr > nod*(1+1e-9) {
			t.Fatalf("%s %s SSE %v exceeds NOD %v", r.Workload, r.Mechanism, r.AvgSqErr, nod)
		}
	}
}

func TestSynopsesProduceRows(t *testing.T) {
	cfg := Config{Scale: ScaleBench, Trials: 2, Seed: 1, Dataset: "socialnetwork"}
	rows, err := Synopses(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × (identity: 5 mechanisms + WRange: 7 mechanisms).
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	byWorkload := map[string]map[string]float64{}
	for _, r := range rows {
		if r.Figure != "Synopses" {
			t.Fatalf("row figure %q", r.Figure)
		}
		if r.AvgSqErr <= 0 || math.IsNaN(r.AvgSqErr) || math.IsInf(r.AvgSqErr, 0) {
			t.Fatalf("bad error value %g for %s/%s", r.AvgSqErr, r.Workload, r.Mechanism)
		}
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[string]float64{}
		}
		byWorkload[r.Workload][r.Mechanism] = r.AvgSqErr
	}
	for _, mech := range []string{"LM", "FPA", "CM", "NF", "SF"} {
		if _, ok := byWorkload["Identity"][mech]; !ok {
			t.Fatalf("identity table missing %s", mech)
		}
	}
	for _, mech := range []string{"NOR+proj", "LRM"} {
		if _, ok := byWorkload["WRange"][mech]; !ok {
			t.Fatalf("range table missing %s", mech)
		}
	}
}
