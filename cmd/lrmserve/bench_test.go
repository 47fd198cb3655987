package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lrm/internal/engine"
	"lrm/internal/mechanism"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// BenchmarkServeAnswer drives the POST /answer handler in process, from
// request bytes to response bytes, with the 64×1024 workload.Related W
// that the warm end-to-end workloads of bench/lrmload send inline:
//
//   - memo-hit: W already memoized, one histogram. Per request: a
//     bracket scan of W's text and one SHA-256 (no grammar check), the
//     histogram parse, the warm engine answer, and the response encode.
//   - first-sight: the same request, but W's text is new to the memo
//     (reset every iteration), so after the bracket scan and the SHA-256
//     W is validated, parsed and fingerprinted. The engine cache is
//     warm, so this is the second-sighting miss.
//   - memo-hit-B16: memo hit with 16 histograms.
//
// MB/s is request bytes per second.
func BenchmarkServeAnswer(b *testing.B) {
	eng, err := engine.New(engine.Options{Mechanism: mechanism.LRM{}})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	w := workload.Related(64, 1024, 8, rng.New(1))
	rows := make([][]float64, w.Queries())
	for i := range rows {
		rows[i] = w.W.RawRow(i)
	}
	hsrc := rng.New(2)
	hists := make([][]float64, 16)
	for i := range hists {
		hists[i] = hsrc.UniformVec(w.Domain(), 0, 100)
	}
	memo := newWMemo()
	h := newHandler(eng, handlerConfig{mech: "LRM", maxBody: 64 << 20, memo: memo})
	serve := func(b *testing.B, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/answer", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, bc := range []struct {
		name  string
		batch int
		miss  bool
	}{
		{"memo-hit", 1, false},
		{"first-sight", 1, true},
		{"memo-hit-B16", 16, false},
	} {
		body, err := json.Marshal(wireRequest{Workload: rows, Histograms: hists[:bc.batch], Eps: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			serve(b, body) // prepares W on the first case, memoizes it on later ones
			serve(b, body)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.miss {
					memo.mu.Lock()
					clear(memo.m)
					memo.bytes = 0
					memo.mu.Unlock()
				}
				serve(b, body)
			}
		})
	}
}
