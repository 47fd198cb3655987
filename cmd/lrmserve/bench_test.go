package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"lrm/internal/engine"
	"lrm/internal/mechanism"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// BenchmarkServeAnswer drives the POST /answer handler in process, from
// request bytes to response bytes. Four cases send the 64×1024
// workload.Related W that the warm end-to-end workloads of bench/lrmload
// send inline:
//
//   - memo-hit: W already memoized, one histogram. Per request: one
//     byte comparison of W's text against the memoized text (no grammar
//     check, no hash), the histogram parse, the warm engine answer by
//     fingerprint, and the response encode.
//   - first-sight: the same request, but W's text is new to the memo
//     (emptied every iteration), so W is validated, parsed and
//     fingerprinted, and its text copied into the memo. The engine cache
//     is warm, so this is the second-sighting miss.
//   - memo-worst: first-sight against a full memo of memoEntries texts
//     (restored every iteration) that each equal W's text up to its last
//     entry, so each comparison runs to the last row before it fails.
//     Its cost over first-sight bounds what a miss pays for the lookup.
//   - memo-hit-B16: memo hit with 16 histograms.
//
// spec-B16 mirrors the spec-batch workload: no W on the wire, the
// kron:prefix(32)xprefix(32) spec and 16 histograms of integer counts in
// [0, 100]. Its response of 16×1024 answers (~300 KiB) is most of its
// bytes, so the histogram parse and the response writer dominate it.
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
	counts := make([][]float64, 16)
	for i := range hists {
		hists[i] = hsrc.UniformVec(w.Domain(), 0, 100)
		counts[i] = make([]float64, w.Domain())
		for j := range counts[i] {
			counts[i][j] = math.Floor(hsrc.Float64() * 101)
		}
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
	// near are the memo-worst texts: W's text with its last entry
	// replaced by 16 other values.
	var near []*memoEntry
	for k := 0; k < memoEntries; k++ {
		v := append([][]float64(nil), rows...)
		last := append([]float64(nil), rows[len(rows)-1]...)
		last[len(last)-1] += float64(k + 1)
		v[len(v)-1] = last
		text, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		near = append(near, &memoEntry{text: text, rows: len(v), cols: len(last), fp: "near"})
	}
	for _, bc := range []struct {
		name string
		req  wireRequest
		memo []*memoEntry // restored before every iteration when non-nil
	}{
		{"memo-hit", wireRequest{Workload: rows, Histograms: hists[:1], Eps: 0.1}, nil},
		{"first-sight", wireRequest{Workload: rows, Histograms: hists[:1], Eps: 0.1}, []*memoEntry{}},
		{"memo-worst", wireRequest{Workload: rows, Histograms: hists[:1], Eps: 0.1}, near},
		{"memo-hit-B16", wireRequest{Workload: rows, Histograms: hists, Eps: 0.1}, nil},
		{"spec-B16", wireRequest{Spec: "kron:prefix(32)xprefix(32)", Histograms: counts, Eps: 0.1}, nil},
	} {
		body, err := json.Marshal(bc.req)
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
				if bc.memo != nil {
					memo.mu.Lock()
					memo.entries = append(memo.entries[:0], bc.memo...)
					memo.bytes = 0
					for _, e := range bc.memo {
						memo.bytes += len(e.text)
					}
					memo.mu.Unlock()
				}
				serve(b, body)
			}
		})
	}
}

// BenchmarkServeAnswerEncode compares the /answer response writer with
// the json.Marshal call it replaced on a spec-batch-shaped answer set:
// 16 rows of 1024 noisy counts. MB/s is response bytes per second.
func BenchmarkServeAnswerEncode(b *testing.B) {
	src := rng.New(3)
	answers := make([][]float64, 16)
	for i := range answers {
		answers[i] = make([]float64, 1024)
		for j := range answers[i] {
			answers[i][j] = math.Floor(src.Float64()*101)*float64(j%32+1) + src.Laplace(40)
		}
	}
	const fp = "spec-0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	buf := make([]byte, 0, answerResponseBound(answers, fp))
	b.Run("writer", func(b *testing.B) {
		out, _ := appendAnswerResponse(buf[:0], answers, fp)
		b.SetBytes(int64(len(out)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := appendAnswerResponse(buf[:0], answers, fp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		out, _ := appendAnswerResponse(buf[:0], answers, fp)
		b.SetBytes(int64(len(out)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(answerResponse{Answers: answers, Fingerprint: fp})
			if err != nil {
				b.Fatal(err)
			}
			_ = append(body, '\n')
		}
	})
}
