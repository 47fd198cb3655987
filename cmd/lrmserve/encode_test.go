package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServeNonFiniteAnswer pins the 500 a release that overflows to ±Inf
// gets: JSON cannot carry it, so the response is encoding/json's
// unsupported-value error, never a 200 with a partial body.
func TestServeNonFiniteAnswer(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, x := range []float64{1e308, -1e308} {
		resp, body := postAnswer(t, srv.URL, wireRequest{
			Workload:   [][]float64{{1, 1}, {1, 0}},
			Histograms: [][]float64{{x, x}},
			Eps:        1,
			Seed:       1,
		})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("histogram of %g: status %d, want 500: %s", x, resp.StatusCode, body)
		}
		var out struct{ Error string }
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("histogram of %g: the 500 body %q is not one JSON error: %v", x, body, err)
		}
		msg, ok := strings.CutPrefix(out.Error, "encoding response: json: unsupported value: ")
		if !ok || (msg != "+Inf" && msg != "-Inf" && msg != "NaN") {
			t.Fatalf("histogram of %g: error %q, want encoding/json's unsupported-value error", x, out.Error)
		}
	}
}

// checkAppendFloat holds appendFloat to json.Marshal on one finite f, and
// to maxFloatLen.
func checkAppendFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	got := appendFloat(nil, f)
	if string(got) != string(want) {
		t.Fatalf("appendFloat(%#x) = %s, json.Marshal writes %s", math.Float64bits(f), got, want)
	}
	if len(got) > maxFloatLen {
		t.Fatalf("appendFloat(%#x) = %s: %d bytes, over maxFloatLen", math.Float64bits(f), got, len(got))
	}
	if abs := math.Abs(f); 1e-6 <= abs && abs < 1e21 {
		if m, e := ryuShortest(math.Float64bits(f)); m%10 == 0 {
			t.Fatalf("ryuShortest(%#x) = %d×10^%d: a trailing zero", math.Float64bits(f), m, e)
		}
	}
}

// FuzzAppendFloat is the differential fuzz of appendFloat against
// encoding/json on arbitrary float64 bits, each checked with both signs.
// A non-finite value must be the error json.Marshal returns for it. The
// seeds are the edges: ±0, the smallest subnormal, the largest float,
// 2^53 and its neighbours, the neighbours of 1e-6 and 1e21 (the ends of
// the 'f' range), and every power of two inside that range, where Ryu's
// interval is lopsided. (TestAppendFloatBulk checks every power of two;
// as seeds, the ~2100 of them would take a short fuzz run's whole
// window to load.) Run it with
//
//	go test ./cmd/lrmserve -run '^$' -fuzz FuzzAppendFloat -fuzztime 15s
func FuzzAppendFloat(f *testing.F) {
	seeds := []float64{0, 5e-324, math.MaxFloat64, 1<<53 - 1, 1 << 53, 1<<53 + 2}
	for _, edge := range []float64{1e-6, 1e21} {
		seeds = append(seeds, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
	}
	for e := -19; e <= 69; e++ {
		seeds = append(seeds, math.Ldexp(1, e))
	}
	for _, s := range seeds {
		f.Add(math.Float64bits(s))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		for _, v := range []float64{math.Float64frombits(u), math.Float64frombits(u ^ 1<<63)} {
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				checkAppendFloat(t, v)
				continue
			}
			_, want := json.Marshal(v)
			if _, err := appendAnswerResponse(nil, [][]float64{{v}}, ""); err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("non-finite %#x: error %v, json.Marshal's %v", math.Float64bits(v), err, want)
			}
		}
	})
}

// TestAppendFloatBulk holds appendFloat to encoding/json on every power
// of two of either sign and on bulkFloats (10M) seeded values, a row of 4096 per
// json.Marshal call: random bit patterns, noisy counts like the answers
// it writes, integers, floats of every binary exponent around the 'f'
// range, and neighbours of its ends.
func TestAppendFloatBulk(t *testing.T) {
	for e := -1074; e <= 1023; e++ {
		checkAppendFloat(t, math.Ldexp(1, e))
		checkAppendFloat(t, -math.Ldexp(1, e))
	}
	const rowLen = 4096
	r := rand.New(rand.NewPCG(1, 2))
	edges := []float64{1e-6, 1e21}
	row := make([]float64, rowLen)
	var got []byte
	for done := 0; done < bulkFloats; done += rowLen {
		for i := range row {
			var v float64
			switch i % 5 {
			case 0:
				v = math.Float64frombits(r.Uint64())
				if math.IsInf(v, 0) || math.IsNaN(v) {
					v = 0
				}
			case 1:
				v = math.Floor(r.Float64()*101) + r.NormFloat64()*math.Pow(10, float64(r.IntN(8)))
			case 2:
				v = float64(r.Int64N(1<<54) - 1<<53)
			case 3:
				v = math.Float64frombits(r.Uint64()&(1<<63|1<<52-1) | uint64(1023-30+r.IntN(110))<<52)
			case 4:
				v = edges[r.IntN(2)]
				for k := r.IntN(64); k > 0; k-- {
					v = math.Nextafter(v, math.Inf(r.IntN(2)*2-1))
				}
			}
			row[i] = v
		}
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got[:0], '[')
		for i, v := range row {
			if i > 0 {
				got = append(got, ',')
			}
			n := len(got)
			if got = appendFloat(got, v); len(got)-n > maxFloatLen {
				t.Fatalf("appendFloat(%#x) = %s: over maxFloatLen", math.Float64bits(v), got[n:])
			}
		}
		if got = append(got, ']'); string(got) != string(want) {
			for _, v := range row {
				checkAppendFloat(t, v)
			}
			t.Fatal("a row differs from json.Marshal, but no value in it does")
		}
	}
}

// TestAppendAnswerResponse holds the whole response to json.Marshal and
// a newline: null and empty answer sets and rows, and fingerprints that
// need escaping. Every output stays within answerResponseBound.
func TestAppendAnswerResponse(t *testing.T) {
	cases := []struct {
		answers [][]float64
		fp      string
	}{
		{nil, "spec-00ff"},
		{[][]float64{}, ""},
		{[][]float64{nil, {}, {1, -0.5}, nil}, "ab"},
		{[][]float64{{math.Copysign(0, -1), 1e-7, 123456789.125, 1e300, -math.MaxFloat64, 5e-324}}, "spec-<&>\"\\\n é\xff"},
		{[][]float64{{0.1, 0.2, 0.30000000000000004}, {100, 1e20, 1e21}}, "00"},
	}
	for _, tc := range cases {
		want, err := json.Marshal(answerResponse{Answers: tc.answers, Fingerprint: tc.fp})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := appendAnswerResponse(nil, tc.answers, tc.fp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("appendAnswerResponse = %s, json.Marshal writes %s", got, want)
		}
		if bound := answerResponseBound(tc.answers, tc.fp); len(got) > bound {
			t.Fatalf("%d bytes written, answerResponseBound %d: %s", len(got), bound, got)
		}
	}
}

// TestServeAnswerBytes holds served 200 bodies to json.Marshal on the
// direct and the coalesced path: encoding/json reads every float back
// exactly, so re-marshaling a body's decode gives the body again only if
// the writer matches json.Marshal byte for byte.
func TestServeAnswerBytes(t *testing.T) {
	direct, _ := newTestServer(t)
	coalesced, _ := newCoalescingServer(t, time.Millisecond, 64)
	req := wireRequest{
		Workload:   [][]float64{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}, {0, 0, 1e-3}},
		Histograms: [][]float64{{10, 20, 30}, {1e-9, 5, 1e22}},
		Eps:        0.5,
	}
	for name, srv := range map[string]*httptest.Server{"direct": direct, "coalesced": coalesced} {
		resp, body := postAnswer(t, srv.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		var out answerResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); string(body) != string(want) {
			t.Fatalf("%s: served %s, json.Marshal writes %s", name, body, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", name, ct)
		}
	}
}
