package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lrm/internal/core"
	"lrm/internal/engine"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/workload"
)

// wireRequest is the POST /answer body as encoding/json sees it. Tests
// marshal request bodies from it, and FuzzDecodeAnswer decodes into it as
// the reference decodeAnswer is held to.
type wireRequest struct {
	Workload   [][]float64 `json:"workload"`
	Spec       string      `json:"spec"`
	Histograms [][]float64 `json:"histograms"`
	Eps        float64     `json:"eps"`
	Budget     float64     `json:"budget"`
	Seed       int64       `json:"seed"`
	Tenant     string      `json:"tenant"`
}

// testWorkload builds the workload a server request carrying rows as W
// would resolve to.
func testWorkload(rows [][]float64) (*workload.Workload, error) {
	body, err := json.Marshal(wireRequest{Workload: rows, Eps: 1})
	if err != nil {
		return nil, err
	}
	a, err := decodeAnswer(body, newWMemo())
	if err != nil {
		return nil, err
	}
	return a.Workload.build()
}

// newTestServer starts a server with -audit-seeds on, so tests can pin
// releases by seed.
func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Options{
		Mechanism: mechanism.LRM{Options: core.Options{MaxOuterIter: 5, MaxInnerIter: 2, MaxNesterovIter: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(eng, handlerConfig{mech: "LRM", maxBody: 1 << 20, auditSeeds: true}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

func postAnswer(t *testing.T, url string, body wireRequest) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/answer", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestServeAnswer(t *testing.T) {
	srv, eng := newTestServer(t)
	req := wireRequest{
		Workload:   [][]float64{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}},
		Histograms: [][]float64{{10, 20, 30}, {5, 5, 5}},
		Eps:        0.5,
		Seed:       3,
	}
	resp, body := postAnswer(t, srv.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out answerResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if len(out.Answers) != 2 || len(out.Answers[0]) != 3 {
		t.Fatalf("answers shape %v, want 2×3", out.Answers)
	}
	if len(out.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q, want 64 hex chars", out.Fingerprint)
	}
	// Identical request: cache hit, bit-identical release at the same seed.
	resp2, body2 := postAnswer(t, srv.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var out2 answerResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, out2) {
		t.Fatal("identical seeded requests produced different releases")
	}
	if st := eng.Stats(); st.Prepares != 1 || st.Hits < 1 {
		t.Fatalf("stats = %+v, want one prepare and a cache hit", st)
	}
}

// TestServeSeedNeedsAuditFlag: a wire seed lets anyone who knows it
// subtract the noise, so without -audit-seeds a non-zero "seed" is a 400
// that reaches no engine work, while a zero or null seed is the default.
// With the flag the seed pins the release.
func TestServeSeedNeedsAuditFlag(t *testing.T) {
	srv, eng, _ := memoServer(t)
	w := `"workload":[[1,0,0],[1,1,0],[1,1,1]],"histograms":[[10,20,30]],"eps":0.5`
	for _, body := range []string{`{` + w + `,"seed":7}`, `{` + w + `,"seed":-1}`, `{"SEED":7,` + w + `}`} {
		resp, err := http.Post(srv.URL+"/answer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "-audit-seeds") {
			t.Fatalf("%s: status %d %s, want 400 naming -audit-seeds", body, resp.StatusCode, msg)
		}
	}
	if st := eng.Stats(); st.Requests != 0 || st.Prepares != 0 {
		t.Fatalf("a rejected seed reached the engine: %+v", st)
	}
	for _, body := range []string{`{` + w + `,"seed":0}`, `{` + w + `,"seed":null}`, `{"seed":7,` + w + `,"seed":0}`} {
		postBody(t, srv.URL, body)
	}

	audit, _ := newTestServer(t)
	req := wireRequest{Workload: [][]float64{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}}, Histograms: [][]float64{{10, 20, 30}}, Eps: 0.5, Seed: 7}
	var first []byte
	for i := 0; i < 2; i++ {
		resp, body := postAnswer(t, audit.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("-audit-seeds: status %d: %s", resp.StatusCode, body)
		}
		if i == 1 && !bytes.Equal(body, first) {
			t.Fatalf("-audit-seeds: one seed released %s, then %s", first, body)
		}
		first = body
	}
}

func TestServeAnswerErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name   string
		req    wireRequest
		status int
	}{
		{"empty workload", wireRequest{Histograms: [][]float64{{1}}, Eps: 1}, http.StatusBadRequest},
		{"ragged workload", wireRequest{Workload: [][]float64{{1, 2}, {3}}, Histograms: [][]float64{{1, 2}}, Eps: 1}, http.StatusBadRequest},
		{"bad eps", wireRequest{Workload: [][]float64{{1}}, Histograms: [][]float64{{1}}, Eps: 0}, http.StatusBadRequest},
		{"wrong histogram length", wireRequest{Workload: [][]float64{{1, 2}}, Histograms: [][]float64{{1}}, Eps: 1}, http.StatusBadRequest},
		{"budget exhausted", wireRequest{
			Workload:   [][]float64{{1, 0}},
			Histograms: [][]float64{{1, 2}, {3, 4}, {5, 6}},
			Eps:        0.5, Budget: 1.0,
		}, http.StatusTooManyRequests},
		// The test server's -max-body is 1 MiB; 600k zeros are 1.2 MB.
		{"oversized body", wireRequest{
			Workload:   [][]float64{{1}},
			Histograms: [][]float64{make([]float64, 600000)},
			Eps:        1,
		}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postAnswer(t, srv.URL, tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, tc.status)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body %s not {\"error\": ...}", body)
			}
		})
	}
	// Unknown fields are rejected (catches schema typos like "epsilon").
	resp, err := http.Post(srv.URL+"/answer", "application/json",
		bytes.NewReader([]byte(`{"workload":[[1]],"histograms":[[1]],"epsilon":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestServeStatsAndHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	postAnswer(t, srv.URL, wireRequest{
		Workload:   [][]float64{{1, 1}},
		Histograms: [][]float64{{2, 3}},
		Eps:        1,
	})
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mechanism != "LRM" || st.Engine.Requests != 1 || st.Engine.Answers != 1 {
		t.Fatalf("stats = %+v, want LRM with one answered request", st)
	}
	// The kernels section names the tier and nothing else.
	var raw struct {
		Kernels map[string]any `json:"kernels"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if want := map[string]any{"tier": mat.KernelTier()}; !reflect.DeepEqual(raw.Kernels, want) {
		t.Fatalf("stats kernels = %v, want %v", raw.Kernels, want)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
	// Method checks.
	mresp, err := http.Get(srv.URL + "/answer")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /answer status %d, want 405", mresp.StatusCode)
	}
}

// TestServeRejectsBadEpsilonBeforeEngine pins the validation order: a
// zero/negative/non-finite (or absent) eps is rejected with 400 straight
// off the decoded body — before the workload is parsed, hashed, or the
// engine touched, which the engine's untouched Requests counter proves.
func TestServeRejectsBadEpsilonBeforeEngine(t *testing.T) {
	srv, eng := newTestServer(t)
	workload := [][]float64{{1, 0}, {1, 1}}
	hist := [][]float64{{3, 4}}
	cases := []struct {
		name string
		body string
	}{
		{"zero", `{"workload":[[1,0],[1,1]],"histograms":[[3,4]],"eps":0}`},
		{"omitted", `{"workload":[[1,0],[1,1]],"histograms":[[3,4]]}`},
		{"negative", `{"workload":[[1,0],[1,1]],"histograms":[[3,4]],"eps":-0.5}`},
		{"huge non-finite-ish", `{"workload":[[1,0],[1,1]],"histograms":[[3,4]],"eps":1e300}`},
		// JSON cannot carry NaN/Inf literals; they must die in decoding,
		// still 400, still before the engine.
		{"nan literal", `{"workload":[[1,0],[1,1]],"histograms":[[3,4]],"eps":NaN}`},
		{"inf literal", `{"workload":[[1,0],[1,1]],"histograms":[[3,4]],"eps":Infinity}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/answer", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			var e map[string]string
			decErr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if decErr != nil || e["error"] == "" {
				t.Fatalf("error body not {\"error\": ...}: %v", decErr)
			}
		})
	}
	if st := eng.Stats(); st.Requests != 0 {
		t.Fatalf("engine saw %d requests; bad-eps rejection must happen before the engine", st.Requests)
	}
	// Sanity: the same shape with a valid eps goes through.
	resp, body := postAnswer(t, srv.URL, wireRequest{Workload: workload, Histograms: hist, Eps: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control request failed: %d (%s)", resp.StatusCode, body)
	}
}

// TestServeAuto drives the handler over a plan-aware engine: answering
// works, and GET /stats surfaces the per-workload plan decisions.
func TestServeAuto(t *testing.T) {
	eng, err := engine.New(engine.Options{
		Planner: &plan.Options{LRM: core.Options{MaxOuterIter: 5, MaxInnerIter: 2, MaxNesterovIter: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(eng, handlerConfig{mech: "auto", maxBody: 1 << 20}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	// A rank-1 workload (every query a multiple of the total) plans lrm; the
	// identity workload is full-rank and must plan a baseline.
	lowRank := wireRequest{
		Workload:   [][]float64{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}},
		Histograms: [][]float64{{5, 6, 7}},
		Eps:        0.5,
	}
	fullRank := wireRequest{
		Workload:   [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		Histograms: [][]float64{{5, 6, 7}},
		Eps:        0.5,
	}
	for _, req := range []wireRequest{lowRank, fullRank} {
		resp, body := postAnswer(t, srv.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Mechanism != "auto" || st.Engine.Planned != 2 {
		t.Fatalf("stats %+v, want mechanism auto with 2 planned workloads", st)
	}
	byMech := map[string]int{}
	for _, d := range st.Plans {
		byMech[d.Mechanism]++
		if d.Digest == "" || d.Summary == "" || len(d.Fingerprint) != 64 {
			t.Fatalf("incomplete plan decision %+v", d)
		}
	}
	if byMech["lrm"] != 1 || len(st.Plans) != 2 {
		t.Fatalf("plan decisions %+v, want one lrm and one baseline", st.Plans)
	}
}

// TestSplitCandidates covers the -plan-candidates parser.
func TestSplitCandidates(t *testing.T) {
	if got := splitCandidates(""); got != nil {
		t.Fatalf("empty list → %v, want nil (planner default)", got)
	}
	if got := splitCandidates(" lrm, lm ,nor,"); !reflect.DeepEqual(got, []string{"lrm", "lm", "nor"}) {
		t.Fatalf("parsed %v", got)
	}
}

// TestServeSpec: POST /answer with an implicit spec — served without a
// matrix, fingerprinted in the spec namespace, deterministic at a seed.
func TestServeSpec(t *testing.T) {
	srv, eng := newTestServer(t)
	req := wireRequest{
		Spec:       "kron:prefix(4)xprefix(4)",
		Histograms: [][]float64{make([]float64, 16)},
		Eps:        0.5,
		Seed:       9,
	}
	for i := range req.Histograms[0] {
		req.Histograms[0][i] = float64(i)
	}
	resp, body := postAnswer(t, srv.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out answerResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if len(out.Answers) != 1 || len(out.Answers[0]) != 16 {
		t.Fatalf("answers shape %v, want 1×16", out.Answers)
	}
	if !strings.HasPrefix(out.Fingerprint, "spec-") {
		t.Fatalf("fingerprint %q not in the spec namespace", out.Fingerprint)
	}
	resp2, body2 := postAnswer(t, srv.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var out2 answerResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, out2) {
		t.Fatal("identical seeded spec requests produced different releases")
	}
	if st := eng.Stats(); st.Implicit != 2 || st.Prepares != 1 {
		t.Fatalf("stats = %+v, want 2 implicit requests and 1 prepare", st)
	}
}

// TestServeSpecErrors: malformed, unknown, or ambiguous spec requests
// die with 400 before any engine work.
func TestServeSpecErrors(t *testing.T) {
	srv, eng := newTestServer(t)
	cases := []wireRequest{
		{Spec: "prefix(", Histograms: [][]float64{{1}}, Eps: 1},
		{Spec: "bogus(16)", Histograms: [][]float64{make([]float64, 16)}, Eps: 1},
		{Spec: "kron:prefix(4)xbogus(4)", Histograms: [][]float64{make([]float64, 16)}, Eps: 1},
		{Spec: "prefix(0)", Histograms: [][]float64{{}}, Eps: 1},
		{Spec: "prefix(4)", Workload: [][]float64{{1, 0, 0, 0}}, Histograms: [][]float64{{1, 2, 3, 4}}, Eps: 1},
		{Spec: "prefix(4)", Histograms: [][]float64{{1, 2, 3}}, Eps: 1}, // wrong domain
	}
	for _, rq := range cases {
		resp, body := postAnswer(t, srv.URL, rq)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d (%s), want 400", rq.Spec, resp.StatusCode, body)
		}
	}
	if st := eng.Stats(); st.Prepares != 0 {
		t.Fatalf("rejected spec requests reached the engine: %+v", st)
	}
}
