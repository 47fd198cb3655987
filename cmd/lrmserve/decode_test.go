package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// referenceDecode is what decodeAnswer replaced: encoding/json's Decoder
// with DisallowUnknownFields into the wire struct, then the shape check
// every decoded workload went through (rows of one non-zero length).
func referenceDecode(body []byte) (wireRequest, error) {
	var req wireRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return wireRequest{}, err
	}
	if len(req.Workload) > 0 {
		n := len(req.Workload[0])
		if n == 0 {
			return wireRequest{}, errors.New("workload matrix has empty rows")
		}
		for i, row := range req.Workload {
			if len(row) != n {
				return wireRequest{}, fmt.Errorf("workload row %d is ragged", i)
			}
		}
	}
	return req, nil
}

// decodeDeviations are decodeAnswer's deliberate departures from
// referenceDecode, as listed in its doc comment: each rejects a body the
// reference accepts.
var decodeDeviations = []error{errTrailingData, errNullElement}

// decodeFull runs decodeAnswer with memo and, when it accepts, resolves
// the workload through the memo without admitting anything: a memo hit
// parses the memoized text, as the handler does when the engine no
// longer holds W, and a miss builds the decoded text.
func decodeFull(body []byte, memo *wMemo) (answerBody, [][]float64, error) {
	a, err := decodeAnswer(body, memo)
	if err != nil || a.Workload.span == nil {
		return a, nil, err
	}
	wl, _, err := memo.workload(a.Workload, func(string) bool { return false })
	if err == nil && wl == nil {
		wl, err = a.Workload.hit.build()
	}
	if err != nil {
		return answerBody{}, nil, err
	}
	w := make([][]float64, wl.W.Rows())
	for i := range w {
		w[i] = wl.W.RawRow(i)
	}
	return a, w, nil
}

// sameFloats compares two matrices bit for bit (so -0 ≠ 0), treating nil
// and empty alike.
func sameFloats(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkDecode holds decodeAnswer to referenceDecode on one body, then
// holds a decode with a memo hit to the plain decode (checkMemoHit).
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, gotW, gotErr := decodeFull(body, newWMemo())
	checkMemoHit(t, body, got, gotW, gotErr)
	want, wantErr := referenceDecode(body)
	switch {
	case wantErr != nil && gotErr != nil:
		return
	case wantErr != nil:
		t.Fatalf("decodeAnswer accepted %q, encoding/json rejects it: %v", body, wantErr)
	case gotErr != nil:
		for _, dev := range decodeDeviations {
			if errors.Is(gotErr, dev) {
				return
			}
		}
		t.Fatalf("decodeAnswer rejected %q (%v), encoding/json accepts it and no listed deviation applies", body, gotErr)
	}
	checkSameBody(t, body, "encoding/json", got, gotW, answerBody{
		Spec: want.Spec, Histograms: want.Histograms, Eps: want.Eps, Budget: want.Budget, Seed: want.Seed, Tenant: want.Tenant,
	}, want.Workload)
	checkHistogramBits(t, body, got.Histograms)
}

// checkHistogramBits holds every decoded histogram value to
// strconv.ParseFloat of its token, bit for bit, whether parseNumber read
// it as an integer or handed it to strconv. encoding/json finds the
// tokens of the "histograms" value that won.
func checkHistogramBits(t *testing.T, body []byte, hists [][]float64) {
	t.Helper()
	var ref struct {
		Histograms [][]json.Number `json:"histograms"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
		t.Fatalf("%q: encoding/json cannot find the histogram tokens: %v", body, err)
	}
	if len(ref.Histograms) != len(hists) {
		t.Fatalf("%q: %d histograms, encoding/json finds %d", body, len(hists), len(ref.Histograms))
	}
	for i, row := range ref.Histograms {
		if len(row) != len(hists[i]) {
			t.Fatalf("%q: histogram %d has %d entries, encoding/json finds %d", body, i, len(hists[i]), len(row))
		}
		for j, tok := range row {
			want, err := strconv.ParseFloat(string(tok), 64)
			if err != nil || math.Float64bits(hists[i][j]) != math.Float64bits(want) {
				t.Fatalf("%q: histogram %d entry %d is %v, strconv.ParseFloat(%s) = %v, %v", body, i, j, hists[i][j], tok, want, err)
			}
		}
	}
}

// TestParseNumber pins parseNumber's integer fast path and its edges
// against strconv.ParseFloat, bit for bit: -0 must stay negative, and a
// 16-digit integer is past the fast path's exact range.
func TestParseNumber(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "7", "-7", "000123", "999999999999999", "-999999999999999",
		"9007199254740993", "-9007199254740993", "1234567890123456789012",
		"1.5", "-0.0", "1e3", "1E-400", "1e400", "", "-", "--1", "1-", "1.",
	} {
		got, err := parseNumber([]byte(tok))
		want, wantErr := strconv.ParseFloat(tok, 64)
		if (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("parseNumber(%q) = %v (%#x), %v; strconv.ParseFloat = %v (%#x), %v",
				tok, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	}
	if v, _ := parseNumber([]byte("-0")); !math.Signbit(v) {
		t.Fatal("parseNumber(-0) lost the sign")
	}
}

// checkSameBody compares two decodes of body bit for bit.
func checkSameBody(t *testing.T, body []byte, ref string, got answerBody, gotW [][]float64, want answerBody, wantW [][]float64) {
	t.Helper()
	if !sameFloats(gotW, wantW) {
		t.Fatalf("%q: workload %v, %s %v", body, gotW, ref, wantW)
	}
	if !sameFloats(got.Histograms, want.Histograms) {
		t.Fatalf("%q: histograms %v, %s %v", body, got.Histograms, ref, want.Histograms)
	}
	if math.Float64bits(got.Eps) != math.Float64bits(want.Eps) || math.Float64bits(got.Budget) != math.Float64bits(want.Budget) {
		t.Fatalf("%q: eps %v budget %v, %s eps %v budget %v", body, got.Eps, got.Budget, ref, want.Eps, want.Budget)
	}
	if got.Seed != want.Seed || got.Spec != want.Spec || got.Tenant != want.Tenant {
		t.Fatalf("%q: seed %d spec %q tenant %q, %s seed %d spec %q tenant %q",
			body, got.Seed, got.Spec, got.Tenant, ref, want.Seed, want.Spec, want.Tenant)
	}
}

// checkMemoHit decodes body again with a memo primed with its workload
// texts: the value that won the plain decode, and the matrix text after
// each key the decoder reads as "workload" that is a valid workload on
// its own (so a body the plain decode rejects can still reach a hit).
// The hit path must accept and reject what the plain decode does, with
// the same error, decode accepted bodies to bit-identical fields, and
// serve the winning workload as a memo hit.
func checkMemoHit(t *testing.T, body []byte, plain answerBody, plainW [][]float64, plainErr error) {
	t.Helper()
	memo := newWMemo()
	var texts [][]byte
	for i := 0; i < len(body); i++ {
		if body[i] != '"' {
			continue
		}
		// Read a key from every quote with the decoder's own rules
		// (escapes, case folding, whitespace around ':').
		d := decoder{b: body, i: i}
		key, err := d.str()
		if err != nil || !bytes.EqualFold(key, []byte(answerFields[fieldWorkload])) {
			continue
		}
		if d.ws(); d.peek() != ':' {
			continue
		}
		d.i++
		d.ws()
		if m, err := d.matrix("workload"); err == nil {
			texts = append(texts, m.span)
		}
	}
	texts = append(texts, plain.Workload.span)
	primed := false
	for _, text := range texts {
		a, err := decodeAnswer(append([]byte(`{"workload":`+string(text)), '}'), memo)
		if err != nil || a.Workload.span == nil {
			continue
		}
		if _, _, err := memo.workload(a.Workload, func(string) bool { return true }); err == nil {
			primed = true
		}
	}
	if !primed {
		return
	}
	before := memo.stats()
	got, gotW, gotErr := decodeFull(body, memo)
	after := memo.stats()
	switch {
	case (gotErr == nil) != (plainErr == nil):
		t.Fatalf("%q: plain decode error %v, with a memo hit %v", body, plainErr, gotErr)
	case gotErr != nil:
		if gotErr.Error() != plainErr.Error() {
			t.Fatalf("%q: plain decode error %q, with a memo hit %q", body, plainErr, gotErr)
		}
		return
	}
	checkSameBody(t, body, "the plain decode", got, gotW, plain, plainW)
	if plainW != nil && (after.Hits != before.Hits+1 || after.Misses != before.Misses) {
		t.Fatalf("%q: memo %+v → %+v with its workload primed, want one hit", body, before, after)
	}
}

// FuzzDecodeAnswer is the differential fuzz of decodeAnswer against
// encoding/json: both must accept the same bodies — except for the
// listed deviations, which may only reject — and decode accepted ones to
// bit-identical fields, every histogram value to the bits
// strconv.ParseFloat gives its token (checkHistogramBits). Each body is also decoded with its workload text
// memoized, which must change nothing but serve W from the memo
// (checkMemoHit). The checked-in corpus under testdata/fuzz covers
// the grammar's corners; run the fuzzer with
//
//	go test ./cmd/lrmserve -run '^$' -fuzz FuzzDecodeAnswer -fuzztime 15s
func FuzzDecodeAnswer(f *testing.F) {
	f.Add([]byte(`{"workload":[[1,0,0],[1,1,0]],"histograms":[[10,20,30]],"eps":0.5,"budget":1,"seed":7,"tenant":"acme"}`))
	f.Add([]byte(`{"spec":"prefix(4)","histograms":[[1,2,3,4],[5,6,7,8]],"eps":1e-1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestDecodeAnswerDeviations pins each deliberate deviation by name:
// encoding/json accepts the body, decodeAnswer rejects it with exactly
// that error.
func TestDecodeAnswerDeviations(t *testing.T) {
	cases := []struct {
		name string
		body string
		dev  error
	}{
		{"trailing object", `{"eps":1}{"eps":2}`, errTrailingData},
		{"trailing garbage", `{"eps":1} x`, errTrailingData},
		{"trailing after null", `null]`, errTrailingData},
		{"null histogram entry", `{"histograms":[[1,null]],"eps":1}`, errNullElement},
		{"null histogram row", `{"histograms":[null],"eps":1}`, errNullElement},
		{"null workload entry", `{"workload":[[null,1]],"eps":1}`, errNullElement},
		{"null entry in a replaced value", `{"histograms":[[null]],"histograms":[[1]],"eps":1}`, errNullElement},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := referenceDecode([]byte(tc.body)); err != nil {
				t.Fatalf("encoding/json rejects %s (%v): not a deviation", tc.body, err)
			}
			if _, err := decodeAnswer([]byte(tc.body), newWMemo()); !errors.Is(err, tc.dev) {
				t.Fatalf("decodeAnswer(%s) = %v, want %v", tc.body, err, tc.dev)
			}
		})
	}
}

// TestDecodeAnswerSemantics spells out the encoding/json behaviours the
// decoder reproduces, beyond agreeing with the reference on each body.
func TestDecodeAnswerSemantics(t *testing.T) {
	a, err := decodeAnswer([]byte(`{"EPS":1,"eps":2,"Seed":3,"seed":null,"tenant":"aé😀\ud800x","spec":"p\"q","workload":[[1,2]],"workload":null}`), newWMemo())
	if err != nil {
		t.Fatal(err)
	}
	if a.Eps != 2 || a.Seed != 3 || a.Tenant != "aé😀�x" || a.Spec != `p"q` || a.Workload.span != nil {
		t.Fatalf("decoded %+v", a)
	}
	// The workload text is kept verbatim; parsing it is the miss path.
	body := []byte(`{"workload": [ [1.0, -0] ,[2e0,3] ] ,"eps":1}`)
	a, err = decodeAnswer(body, newWMemo())
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Workload.span) != `[ [1.0, -0] ,[2e0,3] ]` || a.Workload.rows != 2 || a.Workload.total != 4 {
		t.Fatalf("workload text %q rows %d total %d", a.Workload.span, a.Workload.rows, a.Workload.total)
	}
	checkDecode(t, body)
}
