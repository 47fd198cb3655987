package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lrm/internal/benchsuite"
	"lrm/internal/core"
	"lrm/internal/engine"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// span is one timed call at a layer boundary. Spans of one replayed
// request share Trace; trace 0 holds the once-per-run preparation.
//
// Probe spans re-execute a call the parent made internally (the
// mechanism answer inside engine.Answer, the SVD inside plan.New) right
// after the parent returns, so their interval lies outside the parent's;
// a parent's self time subtracts their durations.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// layerTimes returns, per span name, the median duration and the median
// self time (duration minus its children's durations), in ms.
func (t *tracer) layerTimes() (dur, self map[string]float64) {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		durs[s.Name] = append(durs[s.Name], float64(d)/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(d-children[s.ID])/1e6)
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for name, ds := range durs {
		dur[name] = median(ds)
		self[name] = median(selfs[name])
	}
	return dur, self
}

// wireRequest has the shape of lrmserve's POST /answer body, so decoding
// into it costs what the server's decode costs.
type wireRequest struct {
	Workload   [][]float64 `json:"workload"`
	Spec       string      `json:"spec"`
	Histograms [][]float64 `json:"histograms"`
	Eps        float64     `json:"eps"`
	Budget     float64     `json:"budget"`
	Seed       int64       `json:"seed"`
	Tenant     string      `json:"tenant"`
}

// buildWorkload converts the wire matrix as lrmserve does: shape check,
// mat.FromRows, finiteness.
func buildWorkload(rows [][]float64) (*workload.Workload, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("empty workload")
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("workload row %d is ragged", i)
		}
	}
	w := &workload.Workload{W: mat.FromRows(rows), Name: "http"}
	if !w.W.IsFinite() {
		return nil, errors.New("non-finite workload")
	}
	return w, nil
}

// replayEngine builds an in-process engine configured like the server
// lrmserve runs for def; dir holds its cache and WAL directories.
func replayEngine(def workloadDef, dir string) (*engine.Engine, error) {
	var opts engine.Options
	if def.Mech == "auto" {
		opts.Planner = &plan.Options{}
	} else {
		m, err := mechanism.ByName(def.Mech, mechanism.Config{})
		if err != nil {
			return nil, err
		}
		opts.Mechanism = m
	}
	if def.CacheDir {
		opts.CacheDir = filepath.Join(dir, "cache")
	}
	if def.Tenant != "" {
		acct, err := privacy.OpenAccountant(privacy.AccountantOptions{Dir: filepath.Join(dir, "budget"), DefaultTotal: tenantCap})
		if err != nil {
			return nil, err
		}
		opts.Accountant = acct
	}
	eng, err := engine.New(opts)
	if err != nil && opts.Accountant != nil {
		opts.Accountant.Close()
	}
	return eng, err
}

// replayResult is what the replay measured besides its spans.
type replayResult struct {
	requests, failed int
	errors           []string
	plans, lrmPlans  int
	almIters         []float64
	requestKB        []float64
	responseKB       []float64
	// mflop and mb are the computed (not measured) cost of one request's
	// answer products.
	mflop, mb float64
}

// minReplay is the fewest requests a replay measures, however long they
// take.
const minReplay = 3

// replay sends the workload's generated requests through each layer's
// public functions in process, recording a span per layer call, for
// budget. Cold W are replayed from the start of the pool: the replay's
// engine has never seen them.
func replay(ctx context.Context, in *inputs, lp *localPrep, seed int64, workdir string, budget time.Duration, tr *tracer) (*replayResult, error) {
	eps := privacy.Epsilon(benchEps)
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	eng, err := replayEngine(in.def, dir)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	probeAcct, err := privacy.OpenAccountant(privacy.AccountantOptions{Dir: filepath.Join(dir, "probe"), DefaultTotal: tenantCap})
	if err != nil {
		return nil, err
	}
	defer probeAcct.Close()
	benchsuite.CalibrateKernels() // lrmserve calibrates at startup too
	src := rng.New(streamSeed(seed, streamProbeNoise))

	res := &replayResult{}
	if !in.def.Cold {
		// The warm workloads prepare once, before their first answer: probe
		// the planner and the SVD on that path (prepareLocal already timed
		// the decomposition), then warm the engine untimed.
		if _, err := res.probePrepare(tr, 0, 0, in, in.reqs[0].w, false); err != nil {
			return nil, err
		}
		res.almIters = append(res.almIters, float64(lp.almIters))
		r := in.reqs[0]
		if _, err := eng.Answer(engine.Request{Workload: r.w, Spec: in.spec, Histograms: r.hists, Eps: eps, Tenant: in.def.Tenant, Fingerprint: r.fp}); err != nil {
			return nil, fmt.Errorf("warming the replay engine: %w", err)
		}
	}

	deadline := time.Now().Add(budget)
	for k := 0; ctx.Err() == nil && (k < minReplay || time.Now().Before(deadline)); k++ {
		if in.def.Cold && k >= len(in.reqs) {
			break
		}
		r := in.reqs[k%len(in.reqs)]
		res.requests++
		ea, respBytes, err := replayOne(tr, k+1, r, eng)
		if err != nil {
			res.failed++
			if len(res.errors) < maxErrors {
				res.errors = append(res.errors, err.Error())
			}
			continue
		}
		res.requestKB = append(res.requestKB, float64(r.size)/1024)
		res.responseKB = append(res.responseKB, float64(respBytes)/1024)
		p := lp.p
		if in.def.Cold {
			if p, err = res.probePrepare(tr, k+1, ea, in, r.w, true); err != nil {
				return nil, err
			}
		}
		s := tr.start(k+1, ea, "mechanism.answer")
		err = mechanismAnswer(p, r.hists, eps, src)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		// The spend probe runs on every workload so its cost is always
		// measured; it belongs to engine.answer only where the engine
		// spends.
		parent := 0
		if in.def.Tenant != "" {
			parent = ea
		}
		s = tr.start(k+1, parent, "privacy.spend")
		err = probeAcct.Spend("probe", privacy.Epsilon(float64(len(r.hists))*benchEps))
		tr.end(s)
		if err != nil {
			return nil, err
		}
		m := len(r.exact[0])
		res.mflop, res.mb = answerCost(p, m, len(r.hists[0]), len(r.hists))
	}
	return res, ctx.Err()
}

// replayOne takes one request through the server's stages in process,
// checks the answer, and returns the engine.answer span's ID and the
// response size.
func replayOne(tr *tracer, trace int, r *request, eng *engine.Engine) (int, int, error) {
	body := r.body()
	root := tr.start(trace, 0, "request")
	ea, out, err := replayStages(tr, trace, root, body, eng)
	tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := check(r, out, true); err != nil {
		return 0, 0, err
	}
	return ea, len(out), nil
}

// replayStages runs the stages of lrmserve's POST /answer handler on
// body under the root span and returns the engine.answer span's ID and
// the encoded response.
func replayStages(tr *tracer, trace, root int, body []byte, eng *engine.Engine) (int, []byte, error) {
	s := tr.start(trace, root, "serve.decode")
	var req wireRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(s)
	if err != nil {
		return 0, nil, err
	}
	eps := privacy.Epsilon(req.Eps)
	if err := eps.Validate(); err != nil {
		return 0, nil, err
	}

	var (
		wl *workload.Workload
		sp workload.Spec
		fp string
	)
	s = tr.start(trace, root, "workload.build")
	if req.Spec != "" {
		sp, err = workload.ParseSpec(req.Spec)
	} else {
		wl, err = buildWorkload(req.Workload)
	}
	tr.end(s)
	if err != nil {
		return 0, nil, err
	}
	s = tr.start(trace, root, "workload.fingerprint")
	if sp != nil {
		fp = workload.SpecFingerprint(sp)
	} else {
		fp = core.Fingerprint(wl.W)
	}
	tr.end(s)

	ea := tr.start(trace, root, "engine.answer")
	answers, err := eng.Answer(engine.Request{Workload: wl, Spec: sp, Histograms: req.Histograms, Eps: eps, Tenant: req.Tenant, Fingerprint: fp})
	tr.end(ea)
	if err != nil {
		return 0, nil, err
	}

	s = tr.start(trace, root, "serve.encode")
	out, err := json.Marshal(answerResponse{Answers: answers, Fingerprint: fp})
	tr.end(s)
	return ea, out, err
}

// probePrepare times the preparation path of one workload: plan.New (or
// plan.NewSpec) with its SVD and ALM decomposition re-run as probes
// under it. With decompose false the decomposition is left out (the
// caller timed it already). It returns the plan's winner.
func (res *replayResult) probePrepare(tr *tracer, trace, parent int, in *inputs, w *workload.Workload, decompose bool) (mechanism.Prepared, error) {
	pn := tr.start(trace, parent, "plan.new")
	var (
		pl  *plan.Plan
		err error
	)
	if in.spec != nil {
		pl, err = plan.NewSpec(in.spec, plan.Options{})
	} else {
		pl, err = plan.New(w, plan.Options{})
	}
	tr.end(pn)
	if err != nil {
		return nil, err
	}
	res.plans++
	if pl.Mechanism == "lrm" {
		res.lrmPlans++
	}

	var factors []*mat.Dense
	if in.spec != nil {
		if factors, err = kronFactors(in.spec); err != nil {
			return nil, err
		}
	} else {
		factors = []*mat.Dense{w.W}
	}
	s := tr.start(trace, pn, "mat.svd")
	for _, f := range factors {
		mat.FactorSVD(f)
	}
	tr.end(s)
	if decompose {
		s = tr.start(trace, pn, "core.decompose")
		d, err := core.Decompose(w.W, pl.LRMOptions)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		res.almIters = append(res.almIters, float64(d.OuterIterations))
	}
	return pl.Prepared(), nil
}

// mechanismAnswer answers hists with p directly: Prepared.Answer for one
// histogram, mechanism.AnswerMany for a batch, as the engine does.
func mechanismAnswer(p mechanism.Prepared, hists [][]float64, eps privacy.Epsilon, src *rng.Source) error {
	if err := eps.Validate(); err != nil {
		return err
	}
	if len(hists) == 1 {
		_, err := p.Answer(hists[0], eps, src)
		return err
	}
	x := mat.New(len(hists[0]), len(hists))
	for j, h := range hists {
		x.SetCol(j, h)
	}
	_, err := mechanism.AnswerMany(p, x, eps, src)
	return err
}

// answerCost computes, from the prepared strategy's shapes, the
// floating-point operations (in millions) and the bytes (in MiB) that
// one request's answer products touch for b histograms of an m×n
// workload: the strategy matrices once, and every intermediate vector
// read and written once per histogram. It is computed, not measured.
func answerCost(p mechanism.Prepared, m, n, b int) (mflop, mb float64) {
	type step struct{ out, in int } // one product: out×in factor
	var (
		steps  [][]step // per mode; a dense strategy has one mode
		matrix float64  // strategy cells
	)
	switch s := p.(type) {
	case interface{ Decomposition() *core.Decomposition }:
		d := s.Decomposition()
		r := d.B.Cols()
		steps = [][]step{{{r, n}, {m, r}}}
	case interface {
		KronDecomposition() *core.KronDecomposition
	}:
		for _, d := range s.KronDecomposition().Factors {
			steps = append(steps, []step{{d.L.Rows(), d.L.Cols()}, {d.B.Rows(), d.B.Cols()}})
		}
	default:
		steps = [][]step{{{m, n}}}
	}
	// Apply the L factors mode by mode, then the B factors; each mode
	// product maps the current vector's mode size in→out.
	dims := make([]int, len(steps))
	for i, st := range steps {
		dims[i] = st[0].in
	}
	var flop, vec float64
	for stage := 0; stage < len(steps[0]); stage++ {
		for i, st := range steps {
			if stage >= len(st) {
				continue
			}
			rest := 1.0
			for j, d := range dims {
				if j != i {
					rest *= float64(d)
				}
			}
			in, out := float64(st[stage].in)*rest, float64(st[stage].out)*rest
			flop += 2 * float64(st[stage].out) * in
			vec += in + out
			matrix += float64(st[stage].out * st[stage].in)
			dims[i] = st[stage].out
		}
	}
	return flop * float64(b) / 1e6, 8 * (matrix + vec*float64(b)) / (1 << 20)
}
