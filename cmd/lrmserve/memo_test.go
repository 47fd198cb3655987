package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lrm/internal/core"
	"lrm/internal/engine"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
)

// memoServer is a test server whose warm-W memo the test can inspect.
func memoServer(t *testing.T) (*httptest.Server, *engine.Engine, *wMemo) {
	t.Helper()
	return memoServerWith(t, 0, false)
}

// memoServerWith is memoServer over an engine caching cacheSize
// workloads (0 = the default) and, with coalesce, behind a coalescer
// with a 1 ms window.
func memoServerWith(t *testing.T, cacheSize int, coalesce bool) (*httptest.Server, *engine.Engine, *wMemo) {
	t.Helper()
	eng, err := engine.New(engine.Options{
		Mechanism: mechanism.LRM{Options: core.Options{MaxOuterIter: 5, MaxInnerIter: 2, MaxNesterovIter: 5}},
		CacheSize: cacheSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	memo := newWMemo()
	cfg := handlerConfig{mech: "LRM", maxBody: 1 << 20, memo: memo}
	if coalesce {
		cfg.co = newCoalescer(eng, time.Millisecond, 64)
	}
	srv := httptest.NewServer(newHandler(eng, cfg))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng, memo
}

// memoW is a small distinct workload per k.
func memoW(k int) [][]float64 {
	return [][]float64{{1, 0, float64(k)}, {1, 1, 0}, {0, 1, 1}}
}

// workloadBody spells a request carrying w the way encoding/json does.
func workloadBody(t *testing.T, w [][]float64) string {
	t.Helper()
	raw, err := json.Marshal(wireRequest{Workload: w, Histograms: [][]float64{{1, 2, 3}}, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// postBody posts a raw /answer body that must succeed and returns the
// echoed fingerprint.
func postBody(t *testing.T, url, body string) string {
	t.Helper()
	status, fp := postStatus(t, url, body)
	if status != http.StatusOK {
		t.Errorf("status %d", status)
	}
	return fp
}

// postStatus posts a raw /answer body and returns the status and the
// echoed fingerprint ("" unless 200). It reports failures with t.Error,
// so goroutines may call it.
func postStatus(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/answer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	var out answerResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Error(err)
		}
	}
	return resp.StatusCode, out.Fingerprint
}

func fingerprintOf(w [][]float64) string { return core.Fingerprint(mat.FromRows(w)) }

// checkMemoTexts holds every memoized text to its entry: it must still
// parse to a matrix of the entry's shape that fingerprints to the
// entry's fingerprint, and the byte count must be the texts' total. An
// entry that aliased a recycled request body would fail this.
func checkMemoTexts(t *testing.T, memo *wMemo) {
	t.Helper()
	memo.mu.Lock()
	defer memo.mu.Unlock()
	total := 0
	for _, e := range memo.entries {
		total += len(e.text)
		wl, err := e.build()
		if err != nil {
			t.Fatalf("memoized text %q no longer parses: %v", e.text, err)
		}
		if wl.W.Rows() != e.rows || wl.W.Cols() != e.cols {
			t.Fatalf("memoized text %q is %d×%d, memoized as %d×%d", e.text, wl.W.Rows(), wl.W.Cols(), e.rows, e.cols)
		}
		if got := core.Fingerprint(wl.W); got != e.fp {
			t.Fatalf("memoized text %q hashes to %s, memoized as %s: it was written", e.text, got, e.fp)
		}
	}
	if memo.bytes != total {
		t.Fatalf("memo counts %d bytes, its texts hold %d", memo.bytes, total)
	}
}

// TestMemoIgnoresOneOffWorkloads: W sent once never reaches the memo, so
// traffic that does not repeat W pins nothing.
func TestMemoIgnoresOneOffWorkloads(t *testing.T) {
	srv, _, memo := memoServer(t)
	const n = 5
	for k := 0; k < n; k++ {
		if fp := postBody(t, srv.URL, workloadBody(t, memoW(k))); fp != fingerprintOf(memoW(k)) {
			t.Fatalf("workload %d: fingerprint %q, want core.Fingerprint(W)", k, fp)
		}
	}
	if st := memo.stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != n || st.Hits != 0 {
		t.Fatalf("memo %+v after %d one-off workloads, want empty with %d misses", st, n, n)
	}
}

// TestMemoAdmitsOnSecondSighting: the first request prepares W and is
// not memoized; the second finds W warm and memoizes it; every later one
// hits, found by the decoder's lookup. Every response echoes
// core.Fingerprint(W).
func TestMemoAdmitsOnSecondSighting(t *testing.T) {
	srv, eng, memo := memoServer(t)
	w := memoW(1)
	body, want := workloadBody(t, w), fingerprintOf(w)
	text := len(`[[1,0,1],[1,1,0],[0,1,1]]`) // the memo counts text bytes
	wantStats := []memoStats{
		{Entries: 0, Misses: 1},
		{Entries: 1, Misses: 2, Bytes: text},
		{Entries: 1, Misses: 2, Bytes: text, Hits: 1},
		{Entries: 1, Misses: 2, Bytes: text, Hits: 2},
	}
	for i, ws := range wantStats {
		if fp := postBody(t, srv.URL, body); fp != want {
			t.Fatalf("sighting %d: fingerprint %q, want %q", i+1, fp, want)
		}
		if st := memo.stats(); st != ws {
			t.Fatalf("sighting %d: memo %+v, want %+v", i+1, st, ws)
		}
	}
	if st := eng.Stats(); st.Prepares != 1 || st.Hits != 3 {
		t.Fatalf("engine %+v, want one prepare and three cache hits", st)
	}
}

// TestMemoRespelledWorkload: the memo keys on exact text, so the same W
// spelled differently misses it — and still hits the engine cache under
// the same fingerprint.
func TestMemoRespelledWorkload(t *testing.T) {
	srv, eng, memo := memoServer(t)
	w := memoW(2)
	want := fingerprintOf(w)
	body := workloadBody(t, w)
	postBody(t, srv.URL, body)
	postBody(t, srv.URL, body) // memoized
	respelled := strings.Replace(body, `"workload":[[1,0,2],`, `"workload":[ [1.0, 0e0, 2] ,`, 1)
	if respelled == body {
		t.Fatalf("body %s has no workload to respell", body)
	}
	before, engBefore := memo.stats(), eng.Stats()
	if fp := postBody(t, srv.URL, respelled); fp != want {
		t.Fatalf("respelled W: fingerprint %q, want %q", fp, want)
	}
	after, engAfter := memo.stats(), eng.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("respelled W: memo %+v → %+v, want one more miss", before, after)
	}
	if engAfter.Hits != engBefore.Hits+1 || engAfter.Prepares != 1 {
		t.Fatalf("respelled W: engine %+v → %+v, want a cache hit and no prepare", engBefore, engAfter)
	}
}

// TestMemoConcurrentHammer mixes hits and misses from many goroutines
// over a few workloads, each in two spellings (compact, and with a space
// after the outer bracket), through decodeRequest. Every response must
// echo the right fingerprint, every request must count as exactly one
// hit or miss, and afterwards every memoized text must still encode its
// fingerprint's matrix: texts are copies, never the recycled request
// bodies they came from.
func TestMemoConcurrentHammer(t *testing.T) {
	srv, _, memo := memoServer(t)
	const workloads, clients, rounds = 3, 6, 12
	type spelling struct{ body, fp string }
	var bodies []spelling
	for k := 0; k < workloads; k++ {
		w := memoW(10 + k)
		body := workloadBody(t, w)
		bodies = append(bodies,
			spelling{body, fingerprintOf(w)},
			spelling{strings.Replace(body, `"workload":[`, `"workload":[ `, 1), fingerprintOf(w)})
		postBody(t, srv.URL, body) // prepare, so later sightings are memoized
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := bodies[(c+r)%len(bodies)]
				if fp := postBody(t, srv.URL, b.body); fp != b.fp {
					t.Errorf("client %d round %d: fingerprint %q, want %q", c, r, fp, b.fp)
				}
			}
		}(c)
	}
	wg.Wait()
	st := memo.stats()
	if st.Entries != len(bodies) || st.Hits == 0 || st.Hits+st.Misses != workloads+clients*rounds {
		t.Fatalf("memo %+v, want all %d spellings memoized, some hits, and %d lookups", st, len(bodies), workloads+clients*rounds)
	}
	checkMemoTexts(t, memo)
}

// TestMemoSurvivesEngineEviction: a memo hit sends the engine W's
// fingerprint alone. When the engine has evicted W, it answers
// ErrNotResident, and the handler parses the memoized text and sends the
// request again with W, which prepares it again. That holds with and
// without a coalescer in between.
func TestMemoSurvivesEngineEviction(t *testing.T) {
	for _, tc := range []struct {
		name     string
		coalesce bool
	}{{"direct", false}, {"coalesced", true}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, eng, memo := memoServerWith(t, 1, tc.coalesce)
			w1, w2 := memoW(20), memoW(21)
			b1 := workloadBody(t, w1)
			postBody(t, srv.URL, b1)
			postBody(t, srv.URL, b1) // memoized
			if fp := postBody(t, srv.URL, b1); fp != fingerprintOf(w1) {
				t.Fatalf("resident hit: fingerprint %q, want %q", fp, fingerprintOf(w1))
			}
			postBody(t, srv.URL, workloadBody(t, w2)) // evicts w1 from the engine
			if fp := postBody(t, srv.URL, b1); fp != fingerprintOf(w1) {
				t.Fatalf("evicted hit: fingerprint %q, want %q", fp, fingerprintOf(w1))
			}
			if st, est := memo.stats(), eng.Stats(); st.Hits != 2 || est.Prepares != 3 || est.Requests != 5 {
				t.Fatalf("memo %+v, engine %+v: want two memo hits, the second preparing w1 again", st, est)
			}
			checkMemoTexts(t, memo)
		})
	}
}

// TestMemoBounded: the memo never holds more than memoEntries texts,
// evicts the least recently used first, and keeps its byte count exact.
// Every request goes through the decoder's lookup, as a served one does.
func TestMemoBounded(t *testing.T) {
	memo := newWMemo()
	request := func(k int) {
		t.Helper()
		a, err := decodeAnswer([]byte(fmt.Sprintf(`{"workload":[[%d,1],[2,3]]}`, k)), memo)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := memo.workload(a.Workload, func(string) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	request(0)
	for k := 1; k < 3*memoEntries; k++ {
		request(0) // keep entry 0 the most recently used
		request(k)
		if st := memo.stats(); st.Entries > memoEntries {
			t.Fatalf("after %d workloads: memo %+v, want ≤ %d entries", k+1, st, memoEntries)
		}
		checkMemoTexts(t, memo)
	}
	before := memo.stats()
	request(0)
	if after := memo.stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatal("the most recently used entry was evicted")
	}
	if st := memo.stats(); st.Hits != 3*memoEntries || st.Misses != 3*memoEntries {
		t.Fatalf("memo %+v, want %d hits and as many misses", st, 3*memoEntries)
	}
}

// TestDecodeMemoHitKeepsContract: a memo hit skips W's grammar scan but
// nothing else, so the body around a memoized W is held to the same
// contract as a miss, and only a valid W reaches the memo. Each case
// posts one body to a server whose memo holds W, then reposts it twice:
// a rejected body never adds a memo entry. A body the decoder rejects
// must fail with the error it gets from an empty memo.
func TestDecodeMemoHitKeepsContract(t *testing.T) {
	w := memoW(30)
	wText := `[[1,0,30],[1,1,0],[0,1,1]]`
	other := `[[1,0,31],[1,1,0],[0,1,1]]`
	body := func(workload, rest string) string {
		return `{"workload":` + workload + rest + `,"histograms":[[1,2,3]],"eps":0.5}`
	}
	cases := []struct {
		name   string
		body   string
		status int
		dev    error  // the decode error, when it is a listed deviation
		fp     string // the fingerprint a 200 echoes
		// Deltas of the memo's hits, misses and entries and the engine's
		// cache hits and prepares over the first post.
		hits, misses, entries, engHits, prepares int
	}{
		{name: "hit", body: body(wText, ""), status: 200, fp: fingerprintOf(w), hits: 1, engHits: 1},
		{name: "hit then trailing data", body: body(wText, "") + " x", status: 400, dev: errTrailingData},
		{name: "hit then trailing object", body: body(wText, "") + `{"eps":1}`, status: 400, dev: errTrailingData},
		{name: "hit then null", body: body(wText, `,"workload":null`), status: 400},
		{name: "hit then a different W", body: body(wText, `,"workload":`+other), status: 200,
			fp: fingerprintOf([][]float64{{1, 0, 31}, {1, 1, 0}, {0, 1, 1}}), misses: 1, prepares: 1},
		{name: "hit with invalid histograms", body: `{"workload":` + wText + `,"histograms":[[1,2,"3"]],"eps":0.5}`, status: 400},
		{name: "hit with a null histogram entry", body: `{"workload":` + wText + `,"histograms":[[1,null,3]],"eps":0.5}`, status: 400, dev: errNullElement},
		{name: "hit with a short histogram", body: `{"workload":` + wText + `,"histograms":[[1,2]],"eps":0.5}`, status: 400, hits: 1},
		{name: "hit with spec", body: body(wText, `,"spec":"prefix(3)"`), status: 400},
		// A respelling misses the memo, hits the engine, and, being warm,
		// is admitted under its own text.
		{name: "respelled number", body: body(`[[1.0,0,30],[1,1,0],[0,1,1]]`, ""), status: 200, fp: fingerprintOf(w), misses: 1, entries: 1, engHits: 1},
		{name: "respelled whitespace", body: body(`[[1,0,30], [1,1,0],[0,1,1]]`, ""), status: 200, fp: fingerprintOf(w), misses: 1, entries: 1, engHits: 1},
		{name: "bracket-balanced junk", body: body(`[["1]"]]`, ""), status: 400},
		{name: "nested rows", body: body(`[[[1]]]`, ""), status: 400},
		{name: "unterminated row", body: body(`[[1,0,30]`, ""), status: 400},
		{name: "ragged W", body: body(`[[1,0,30],[1,1]]`, ""), status: 400},
		{name: "out-of-range W", body: body(`[[1e400,0,30],[1,1,0],[0,1,1]]`, ""), status: 400, misses: 1},
		// W's text ends a row early in a longer value: the memo text
		// [[1,0,30],[1,1,0],[0,1,1]] and this value share all but its
		// closing bracket, so it is no prefix of this value.
		{name: "longer W sharing the memo text's rows", body: body(`[[1,0,30],[1,1,0],[0,1,1],[1,1,1]]`, ""), status: 200,
			fp: fingerprintOf([][]float64{{1, 0, 30}, {1, 1, 0}, {0, 1, 1}, {1, 1, 1}}), misses: 1, prepares: 1},
		{name: "hit then a stray bracket", body: body(wText+"]", ""), status: 400},
		{name: "hit then junk", body: body(wText+"x", ""), status: 400},
		{name: "hit then a digit", body: body(wText+"1", ""), status: 400},
		{name: "W differing in its last entry", body: body(`[[1,0,30],[1,1,0],[0,1,2]]`, ""), status: 200,
			fp: fingerprintOf([][]float64{{1, 0, 30}, {1, 1, 0}, {0, 1, 2}}), misses: 1, prepares: 1},
		{name: "hit then the same W", body: body(wText, `,"workload":`+wText), status: 200, fp: fingerprintOf(w), hits: 1, engHits: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, eng, memo := memoServer(t)
			warmup := workloadBody(t, w)
			if !strings.Contains(warmup, `"workload":`+wText+`,`) {
				t.Fatalf("warm-up body %s does not spell W as %s", warmup, wText)
			}
			postBody(t, srv.URL, warmup)
			postBody(t, srv.URL, warmup) // memoized
			_, err := decodeAnswer([]byte(tc.body), memo)
			if tc.dev != nil && !errors.Is(err, tc.dev) {
				t.Fatalf("decodeAnswer = %v, want %v", err, tc.dev)
			}
			_, missErr := decodeAnswer([]byte(tc.body), newWMemo())
			if fmt.Sprint(err) != fmt.Sprint(missErr) {
				t.Fatalf("decodeAnswer with W memoized: %v; with an empty memo: %v", err, missErr)
			}
			before, engBefore := memo.stats(), eng.Stats()
			status, fp := postStatus(t, srv.URL, tc.body)
			after, engAfter := memo.stats(), eng.Stats()
			if status != tc.status || fp != tc.fp {
				t.Fatalf("status %d fingerprint %q, want %d %q", status, fp, tc.status, tc.fp)
			}
			got := [...]int{int(after.Hits - before.Hits), int(after.Misses - before.Misses), after.Entries - before.Entries,
				int(engAfter.Hits - engBefore.Hits), int(engAfter.Prepares - engBefore.Prepares)}
			if want := [...]int{tc.hits, tc.misses, tc.entries, tc.engHits, tc.prepares}; got != want {
				t.Fatalf("memo hits, misses, entries and engine hits, prepares moved by %v, want %v", got, want)
			}
			if status != 200 {
				postStatus(t, srv.URL, tc.body)
				postStatus(t, srv.URL, tc.body)
				if st := memo.stats(); st.Entries != before.Entries || st.Bytes != before.Bytes {
					t.Fatalf("memo %+v after a rejected body was posted three times, was %+v", st, before)
				}
			}
		})
	}
}

// TestMemoHitSkipsGrammarScan pins what makes a hit cheap: the decoder
// trusts a memoized text and does not re-check its grammar, whatever
// whitespace lies between its rows. A text planted that is not JSON is
// taken as that entry's workload. A served memo only holds texts that
// passed the full decoder, so this never happens outside the test.
func TestMemoHitSkipsGrammarScan(t *testing.T) {
	memo := newWMemo()
	text := "[ [x] ,\n\t[y]\r]"
	memo.put(&memoEntry{text: []byte(text), rows: 2, cols: 2, fp: "planted"})
	body := []byte(`{"workload": ` + text + ` ,"eps":1}`)
	a, err := decodeAnswer(body, memo)
	if err != nil || a.Workload.hit == nil || a.Workload.rows != 2 || a.Workload.total != 4 {
		t.Fatalf("decodeAnswer = %+v, %v: want the planted entry", a.Workload, err)
	}
	if _, err := decodeAnswer(body, newWMemo()); err == nil {
		t.Fatal("without the memo entry the text must fail the grammar scan")
	}
}

// TestMemoPrefixMatch pins the lookup on texts that share long prefixes:
// a value matches only the entry whose whole text it starts with, and a
// memoized text is never matched by a longer value that shares its rows
// or by one that differs from it in the last entry alone.
func TestMemoPrefixMatch(t *testing.T) {
	memo := newWMemo()
	texts := []string{`[[1,2]]`, `[[1,3]]`, `[[1,2],[3,4]]`, `[[1,2] ]`}
	for _, text := range texts {
		a, err := decodeAnswer([]byte(`{"workload":`+text+`}`), memo)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := memo.workload(a.Workload, func(string) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if st := memo.stats(); st.Entries != len(texts) {
		t.Fatalf("memo %+v, want all %d texts memoized", st, len(texts))
	}
	for _, tc := range []struct{ rest, want string }{
		{`[[1,2]],"eps":1}`, `[[1,2]]`},
		{`[[1,3]]}`, `[[1,3]]`},
		{`[[1,2],[3,4]]}`, `[[1,2],[3,4]]`},
		{`[[1,2] ]}`, `[[1,2] ]`},
		{`[[1,2],[3,5]]}`, ""},
		{`[[1,2],[3,4],[5,6]]}`, ""},
		{`[[1,2]]]`, `[[1,2]]`}, // a hit; the stray ']' is the decoder's to reject
		{`[[1,2`, ""},
		{`[[1,4]]}`, ""},
		{`[[1,20]]}`, ""},
	} {
		got := ""
		if e := memo.lookup([]byte(tc.rest)); e != nil {
			got = string(e.text)
		}
		if got != tc.want {
			t.Errorf("lookup(%s) matched %q, want %q", tc.rest, got, tc.want)
		}
	}
}
