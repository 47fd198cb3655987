package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"lrm/internal/engine"
	"lrm/internal/privacy"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{10000, 99.9, 99.9},
		{9999, 99.9, 99},
		{1000, 99, 99},
		{999, 99, 95},
		{5000, 95, 95}, // capped by the workload's level
		{200, 99, 95},
		{199, 99, 90},
		{40, 75, 75},
		{39, 75, 50},
		{19, 99, 0},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	// A failed request is +Inf: it sorts last and misses every limit.
	failed := append(append([]float64(nil), xs[:10]...), math.Inf(1))
	if got := percentile(failed, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}

// tinyWorkloads shrinks every workload so tests run in seconds.
func tinyWorkloads() []workloadDef {
	var out []workloadDef
	for _, d := range workloads {
		d.M, d.N, d.Rank = 8, 32, 2
		if d.Spec != "" {
			d.Spec = "kron:prefix(4)xprefix(4)"
		}
		out = append(out, d)
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	for _, def := range tinyWorkloads() {
		a, err := generate(def, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(def, 7, 20)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(def, 8, 20)
		if err != nil {
			t.Fatal(err)
		}
		same, differs := true, false
		for i := range a.reqs {
			if !bytes.Equal(a.reqs[i].body(), b.reqs[i].body()) {
				same = false
			}
			if !bytes.Equal(a.reqs[i].body(), c.reqs[i].body()) {
				differs = true
			}
			var wr wireRequest
			dec := json.NewDecoder(bytes.NewReader(a.reqs[i].body()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&wr); err != nil {
				t.Fatalf("%s: body %d is not a valid request: %v", def.Name, i, err)
			}
			if len(wr.Histograms) != def.Batch || wr.Eps != benchEps || wr.Tenant != def.Tenant {
				t.Errorf("%s: body %d has %d histograms, eps %v, tenant %q", def.Name, i, len(wr.Histograms), wr.Eps, wr.Tenant)
			}
			if int64(len(a.reqs[i].body())) != a.reqs[i].size {
				t.Errorf("%s: body %d size %d, recorded %d", def.Name, i, len(a.reqs[i].body()), a.reqs[i].size)
			}
		}
		if !same {
			t.Errorf("%s: the same seed gave different bodies", def.Name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave identical bodies", def.Name)
		}
		if def.Cold {
			seen := map[string]bool{}
			for i, r := range a.reqs {
				if seen[r.fp] {
					t.Errorf("cold W %d repeats an earlier W", i)
				}
				seen[r.fp] = true
			}
			src := &source{reqs: a.reqs, cold: true}
			for range a.reqs {
				if _, err := src.take(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := src.take(); err == nil {
				t.Error("the cold source handed out a W twice")
			}
		}
	}
}

func TestStatsDelta(t *testing.T) {
	a := engine.Stats{Requests: 10, Answers: 20, Hits: 9, Misses: 1, Prepares: 1, Evictions: 2, DiskWrites: 1, Batched: 3, Cached: 5}
	b := engine.Stats{Requests: 25, Answers: 50, Hits: 24, Misses: 1, Prepares: 1, Evictions: 7, DiskWrites: 4, Batched: 18, Cached: 6}
	want := engine.Stats{Requests: 15, Answers: 30, Hits: 15, Prepares: 0, Evictions: 5, DiskWrites: 3, Batched: 15, Cached: 6}
	if got := statsDelta(a, b); got != want {
		t.Errorf("statsDelta = %+v, want %+v", got, want)
	}
	doc := statsDoc{Tenants: []privacy.TenantStatus{{Tenant: "other", Spent: 5}, {Tenant: "bench", Spent: 1.5}}}
	if got := doc.spent("bench"); got != 1.5 {
		t.Errorf("spent(bench) = %v, want 1.5", got)
	}
	if got := doc.spent("absent"); got != 0 {
		t.Errorf("spent(absent) = %v, want 0", got)
	}
}

// response encodes answers as lrmserve would.
func response(t *testing.T, answers [][]float64, fp string) []byte {
	t.Helper()
	b, err := json.Marshal(answerResponse{Answers: answers, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGatesReject(t *testing.T) {
	def := tinyWorkloads()[1] // warm-batch-tenant: several histograms
	in, err := generate(def, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := in.reqs[0]

	// A zero-noise response passes the shape checks but not the noise gate.
	sse, n, err := check(r, response(t, r.exact, r.fp), true)
	if err != nil {
		t.Fatalf("exact answers rejected: %v", err)
	}
	if g := noiseGate(sse/float64(n), 1000, def.Band); g.Pass {
		t.Errorf("zero-noise answers passed: %s", g.Detail)
	}
	if g := noiseGate(1000, 1000, def.Band); !g.Pass {
		t.Errorf("analytic-level noise failed: %s", g.Detail)
	}

	// Every entry off by 0.5: the squared error is a quarter per entry,
	// and a reformatted response reads the same.
	noisy := make([][]float64, len(r.exact))
	for i, a := range r.exact {
		for _, v := range a {
			noisy[i] = append(noisy[i], v+0.5)
		}
	}
	body := response(t, noisy, r.fp)
	spaced := bytes.ReplaceAll(bytes.ReplaceAll(body, []byte(","), []byte(", ")), []byte(":"), []byte(" :\n"))
	for _, b := range [][]byte{body, spaced} {
		sse, n, err := check(r, b, true)
		if err != nil || n != def.Batch*def.M || math.Abs(sse-float64(n)/4) > 1e-9*float64(n) {
			t.Errorf("noisy answers: sse %v over %d entries, err %v; want %v over %d", sse, n, err, float64(def.Batch*def.M)/4, def.Batch*def.M)
		}
	}

	// Wrong shapes, a wrong fingerprint and malformed JSON are rejected,
	// with or without parsing the values.
	short := append([][]float64(nil), r.exact...)
	short[0] = short[0][1:]
	long := append([][]float64(nil), r.exact...)
	long[0] = append(append([]float64(nil), long[0]...), 1)
	bad := map[string][]byte{
		"short answer":      response(t, short, r.fp),
		"long answer":       response(t, long, r.fp),
		"missing histogram": response(t, r.exact[1:], r.fp),
		"extra histogram":   response(t, append(r.exact, r.exact[0]), r.fp),
		"wrong fingerprint": response(t, r.exact, "0000"),
		"no fingerprint":    []byte(`{"answers":[]}`),
		"unknown key":       append([]byte(`{"extra":"x",`), response(t, r.exact, r.fp)[1:]...),
		"trailing data":     append(response(t, r.exact, r.fp), '}'),
		"not json":          []byte("{"),
	}
	for name, body := range bad {
		for _, withSSE := range []bool{true, false} {
			if _, _, err := check(r, body, withSSE); err == nil {
				t.Errorf("%s (withSSE %v): accepted", name, withSSE)
			}
		}
	}
	noisy[0][0] = 12345.5
	inf := bytes.Replace(response(t, noisy, r.fp), []byte("12345.5"), []byte("1e999"), 1)
	if _, _, err := check(r, inf, true); err == nil {
		t.Error("an infinite answer was accepted")
	}

	// ε must be charged exactly once per answered histogram.
	if g := spendGate(16*benchEps, 16); !g.Pass {
		t.Errorf("single charge failed: %s", g.Detail)
	}
	if g := spendGate(2*16*benchEps, 16); g.Pass {
		t.Errorf("double charge passed: %s", g.Detail)
	}
	if g := spendGate(0, 16); g.Pass {
		t.Errorf("missing charge passed: %s", g.Detail)
	}

	if g := prepareGate(false, engine.Stats{Hits: 10}, 10); !g.Pass {
		t.Errorf("warm hits failed: %s", g.Detail)
	}
	if g := prepareGate(false, engine.Stats{Hits: 9, Misses: 1, Prepares: 1}, 10); g.Pass {
		t.Errorf("a warm prepare passed: %s", g.Detail)
	}
	if g := prepareGate(true, engine.Stats{Misses: 10, Prepares: 10}, 10); !g.Pass {
		t.Errorf("cold prepares failed: %s", g.Detail)
	}
	if g := prepareGate(true, engine.Stats{Hits: 1, Misses: 9, Prepares: 9}, 10); g.Pass {
		t.Errorf("a cold hit passed: %s", g.Detail)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to what lrmload emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, lrmload runs %s", got, want)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, lrmload emits %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, lrmload %s %s", c.kind, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestSmoke runs every tiny workload end to end against a real lrmserve
// with half-second runs, and one traced run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs lrmserve")
	}
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := config{workdir: t.TempDir(), seed: 1, seconds: 0.5, coldPool: 1000}
	if cfg.server, err = buildServer(ctx, repo, cfg.workdir); err != nil {
		t.Fatal(err)
	}
	defs := tinyWorkloads()
	run := func(cfg config, def workloadDef, want []metricDef) {
		wr, err := runWorkload(ctx, cfg, def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		for _, g := range wr.Gates {
			if !g.Pass {
				t.Errorf("%s: gate %s: %s", def.Name, g.Name, g.Detail)
			}
		}
		if !wr.Correct || wr.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d, phases %+v, replay %v", def.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Phases, wr.ReplayErrors)
		}
		line := summary([]*workloadRun{wr}, cfg.trace)
		if !line.Correct || len(line.Metrics) != len(want) {
			t.Errorf("%s: result line has %d of %d metrics: %+v", def.Name, len(line.Metrics), len(want), line)
		}
	}
	for _, def := range defs {
		run(cfg, def, endToEnd)
	}
	cfg.trace = true
	run(cfg, defs[0], perLayer)
}
