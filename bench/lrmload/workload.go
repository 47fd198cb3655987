package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

const (
	// benchEps is the per-histogram ε of every request.
	benchEps = 0.1
	// histPool is the number of distinct histograms a run draws.
	histPool = 64
	// maxCount bounds the histogram cells: integer counts in [0, maxCount],
	// the Uniform[0,100] data of the paper's experiments.
	maxCount = 100
	// tenantCap is the tenant workload's ε cap (-tenant-eps): large
	// enough that no run exhausts it, so every request is charged.
	tenantCap = 1e12
)

// workloadDef is one row of the workload table. README.md gives the
// reason for each.
type workloadDef struct {
	Name string
	// Mech is lrmserve's -mech.
	Mech string
	// Tenant, when set, starts the server with a durable accountant
	// (-budget-dir, -tenant-eps) and charges every request to it.
	Tenant string
	// CacheDir starts the server with a fresh -cache-dir.
	CacheDir bool
	// Spec, when set, makes requests name the queries by this spec
	// instead of carrying W.
	Spec string
	// M, N and Rank shape the dense W = workload.Related(M, N, Rank).
	M, N, Rank int
	// Batch is the number of histograms per request.
	Batch int
	// Cold makes every request carry a W the server has never seen.
	Cold bool
	// Tail is the percentile reported as latency_tail_ms.
	Tail float64
	// Band is the accepted range of answer_mse over the analytic
	// per-entry error ExpectedSSE(ε)/m.
	Band [2]float64
}

var workloads = []workloadDef{
	{Name: "warm-single", Mech: "lrm", M: 64, N: 1024, Rank: 8, Batch: 1, Tail: 95, Band: [2]float64{0.8, 1.25}},
	{Name: "warm-batch-tenant", Mech: "lrm", Tenant: "bench", M: 64, N: 1024, Rank: 8, Batch: 16, Tail: 95, Band: [2]float64{0.8, 1.25}},
	{Name: "spec-batch", Mech: "lrm", Spec: "kron:prefix(32)xprefix(32)", Batch: 16, Tail: 99, Band: [2]float64{0.8, 1.25}},
	{Name: "cold-plan", Mech: "auto", CacheDir: true, M: 64, N: 128, Rank: 8, Batch: 1, Cold: true, Tail: 75, Band: [2]float64{0.5, 2.0}},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// request is one pre-encoded POST /answer body and what a correct
// answer to it looks like.
type request struct {
	// parts concatenate to the body. Warm dense requests share the
	// encoded W part, so the 64 distinct bodies cost one copy of it.
	parts [][]byte
	size  int64
	// fp is the fingerprint the response must echo.
	fp string
	// w is the dense workload the body carries (nil for a spec).
	w     *workload.Workload
	hists [][]float64
	// exact[i] is W·hists[i].
	exact [][]float64
}

func (r *request) body() []byte { return bytes.Join(r.parts, nil) }

// inputs is everything one workload run sends, generated from -seed
// alone before any server starts.
type inputs struct {
	def  workloadDef
	reqs []*request
	spec workload.Spec // spec workloads only
}

// streamSeed derives the seed of one input stream from the run's seed,
// so every input is a function of -seed and streams never overlap.
func streamSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (stream+1)*0xd1b54a32d192ed03
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Input streams: the histogram pool, the warm W, the trace probes'
// noise, and cold W number i at streamColdW+i.
const (
	streamHists uint64 = iota
	streamWarmW
	streamProbeNoise
	streamColdW
)

// generate builds a workload's requests. Warm workloads get
// histPool/Batch distinct bodies, which the clients cycle through; a
// cold workload gets coldPool bodies, each with its own W, and sending
// one twice is an error.
func generate(def workloadDef, seed int64, coldPool int) (*inputs, error) {
	in := &inputs{def: def}
	n := def.N
	if def.Spec != "" {
		sp, err := workload.ParseSpec(def.Spec)
		if err != nil {
			return nil, err
		}
		in.spec = sp
		n = sp.Domain()
	}
	hsrc := rng.New(streamSeed(seed, streamHists))
	hists := make([][]float64, histPool)
	for i := range hists {
		h := make([]float64, n)
		for j := range h {
			h[j] = math.Floor(hsrc.Float64() * (maxCount + 1))
		}
		hists[i] = h
	}

	var tail string
	if def.Tenant != "" {
		tail = fmt.Sprintf(`,"tenant":%q`, def.Tenant)
	}
	tail = fmt.Sprintf(`,"eps":%g%s}`, benchEps, tail)
	rest := func(batch [][]float64) ([]byte, error) {
		hj, err := json.Marshal(batch)
		if err != nil {
			return nil, err
		}
		return []byte(`,"histograms":` + string(hj) + tail), nil
	}

	switch {
	case def.Cold:
		for i := 0; i < coldPool; i++ {
			w := workload.Related(def.M, def.N, def.Rank, rng.New(streamSeed(seed, streamColdW+uint64(i))))
			r, err := denseRequest(w, core.Fingerprint(w.W), nil, [][]float64{hists[i%histPool]}, rest)
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, r)
		}
	case in.spec != nil:
		head, err := json.Marshal(def.Spec)
		if err != nil {
			return nil, err
		}
		fp := workload.SpecFingerprint(in.spec)
		for k := 0; k+def.Batch <= histPool; k += def.Batch {
			batch := hists[k : k+def.Batch]
			r := &request{fp: fp, hists: batch}
			for _, h := range batch {
				r.exact = append(r.exact, in.spec.AnswerTo(make([]float64, in.spec.Queries()), h))
			}
			tailPart, err := rest(batch)
			if err != nil {
				return nil, err
			}
			r.parts = [][]byte{[]byte(`{"spec":` + string(head)), tailPart}
			in.reqs = append(in.reqs, r.sized())
		}
	default:
		w := workload.Related(def.M, def.N, def.Rank, rng.New(streamSeed(seed, streamWarmW)))
		wj, err := matrixJSON(w.W)
		if err != nil {
			return nil, err
		}
		fp := core.Fingerprint(w.W)
		for k := 0; k+def.Batch <= histPool; k += def.Batch {
			r, err := denseRequest(w, fp, wj, hists[k:k+def.Batch], rest)
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, r)
		}
	}
	return in, nil
}

// denseRequest builds a request carrying W inline; wj is W's encoding
// when the caller shares one across requests, nil to encode it here.
func denseRequest(w *workload.Workload, fp string, wj []byte, batch [][]float64, rest func([][]float64) ([]byte, error)) (*request, error) {
	if wj == nil {
		var err error
		if wj, err = matrixJSON(w.W); err != nil {
			return nil, err
		}
	}
	tailPart, err := rest(batch)
	if err != nil {
		return nil, err
	}
	r := &request{fp: fp, w: w, hists: batch, parts: [][]byte{[]byte(`{"workload":`), wj, tailPart}}
	for _, h := range batch {
		r.exact = append(r.exact, w.Answer(h))
	}
	return r.sized(), nil
}

func (r *request) sized() *request {
	for _, p := range r.parts {
		r.size += int64(len(p))
	}
	return r
}

// matrixJSON encodes W as the wire's array of rows. encoding/json
// writes the shortest decimal that round-trips, so the server decodes
// exactly W and hashes to the same fingerprint.
func matrixJSON(w *mat.Dense) ([]byte, error) {
	rows := make([][]float64, w.Rows())
	for i := range rows {
		rows[i] = w.RawRow(i)
	}
	return json.Marshal(rows)
}

var errPoolExhausted = errors.New("cold workload pool exhausted: a W would be sent twice")

// source hands requests to the clients: warm requests cycle, cold ones
// are each handed out once.
type source struct {
	reqs []*request
	cold bool
	next atomic.Int64
}

func (s *source) take() (*request, error) {
	i := int(s.next.Add(1) - 1)
	if !s.cold {
		return s.reqs[i%len(s.reqs)], nil
	}
	if i >= len(s.reqs) {
		return nil, errPoolExhausted
	}
	return s.reqs[i], nil
}
