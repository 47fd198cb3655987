package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lrm/internal/core"
	"lrm/internal/engine"
	"lrm/internal/mechanism"
)

// newCoalescingServer starts a coalescing server with -audit-seeds on,
// so tests can send seeded requests that bypass the window.
func newCoalescingServer(t *testing.T, window time.Duration, max int) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Options{
		Mechanism: mechanism.LRM{Options: core.Options{MaxOuterIter: 5, MaxInnerIter: 2, MaxNesterovIter: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(eng, handlerConfig{mech: "LRM", maxBody: 1 << 20, co: newCoalescer(eng, window, max), auditSeeds: true}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

// coalesceTestRequest is the shared workload the coalescing tests post.
func coalesceTestRequest(hist []float64) wireRequest {
	return wireRequest{
		Workload:   [][]float64{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}},
		Histograms: [][]float64{hist},
		Eps:        0.5,
	}
}

// TestCoalesceMergesConcurrentRequests: N concurrent unseeded requests
// for one workload inside the window must collapse into fewer engine
// requests (here: exactly one), with every caller getting its own
// correctly shaped rows.
func TestCoalesceMergesConcurrentRequests(t *testing.T) {
	srv, eng := newCoalescingServer(t, 200*time.Millisecond, 64)
	// Warm the cache so the window isn't consumed by the decomposition.
	if resp, body := postAnswer(t, srv.URL, coalesceTestRequest([]float64{1, 2, 3})); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, body)
	}
	before := eng.Stats()

	const clients = 5
	var wg sync.WaitGroup
	shapes := make([]int, clients)
	codes := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, body := postAnswer(t, srv.URL, coalesceTestRequest([]float64{float64(c), 1, 1}))
			codes[c] = resp.StatusCode
			var out answerResponse
			if err := json.Unmarshal(body, &out); err != nil {
				return
			}
			if len(out.Answers) == 1 {
				shapes[c] = len(out.Answers[0])
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if codes[c] != http.StatusOK {
			t.Fatalf("client %d: status %d", c, codes[c])
		}
		if shapes[c] != 3 {
			t.Fatalf("client %d: got answer shape %d, want 3 queries", c, shapes[c])
		}
	}
	after := eng.Stats()
	if got := after.Requests - before.Requests; got != 1 {
		t.Fatalf("%d clients became %d engine requests, want 1 coalesced batch", clients, got)
	}
	if after.Answers-before.Answers != clients {
		t.Fatalf("answers delta %d, want %d", after.Answers-before.Answers, clients)
	}
}

// TestCoalesceSizeCapFlushesEarly: a group that reaches -coalesce-max
// must flush without waiting out the window (the window here is far
// longer than the test timeout would tolerate).
func TestCoalesceSizeCapFlushesEarly(t *testing.T) {
	srv, eng := newCoalescingServer(t, 30*time.Second, 2)
	done := make(chan int, 2)
	for c := 0; c < 2; c++ {
		go func(c int) {
			resp, _ := postAnswer(t, srv.URL, coalesceTestRequest([]float64{float64(c), 0, 0}))
			done <- resp.StatusCode
		}(c)
	}
	for i := 0; i < 2; i++ {
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("size-capped group did not flush before the window")
		}
	}
	if st := eng.Stats(); st.Requests != 1 {
		t.Fatalf("stats = %+v, want the pair merged into 1 engine request", st)
	}
}

// TestCoalesceBypassesSeededAndBudgeted: pinned-seed or budgeted requests
// carry per-request semantics and must go straight to the engine even
// with coalescing on.
func TestCoalesceBypassesSeededAndBudgeted(t *testing.T) {
	srv, eng := newCoalescingServer(t, 30*time.Second, 64)
	seeded := coalesceTestRequest([]float64{1, 2, 3})
	seeded.Seed = 7
	if resp, body := postAnswer(t, srv.URL, seeded); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeded status %d: %s", resp.StatusCode, body)
	}
	budgeted := coalesceTestRequest([]float64{1, 2, 3})
	budgeted.Budget = 0.5
	if resp, body := postAnswer(t, srv.URL, budgeted); resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted status %d: %s", resp.StatusCode, body)
	}
	if st := eng.Stats(); st.Requests != 2 {
		t.Fatalf("stats = %+v, want both bypass requests served individually", st)
	}
}

// TestCoalesceRejectsBadHistogramBeforeMerging: a malformed histogram
// must be rejected at the door (400) rather than poisoning a merged
// batch.
func TestCoalesceRejectsBadHistogramBeforeMerging(t *testing.T) {
	srv, eng := newCoalescingServer(t, 50*time.Millisecond, 64)
	bad := coalesceTestRequest([]float64{1, 2}) // domain is 3
	if resp, _ := postAnswer(t, srv.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short histogram: status %d, want 400", resp.StatusCode)
	}
	empty := coalesceTestRequest(nil)
	empty.Histograms = nil
	if resp, _ := postAnswer(t, srv.URL, empty); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	if st := eng.Stats(); st.Requests != 0 {
		t.Fatalf("stats = %+v, want no engine requests for rejected bodies", st)
	}
}
