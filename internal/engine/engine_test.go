package engine

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// fastOpts keeps the decomposition cheap so tests exercise the serving
// machinery, not the optimizer.
func fastOpts() core.Options {
	return core.Options{MaxOuterIter: 5, MaxInnerIter: 2, MaxNesterovIter: 5}
}

func testWorkload(seed int64) *workload.Workload {
	return workload.Related(12, 16, 3, rng.New(seed))
}

func testHistogram(n int, seed int64) []float64 {
	return rng.New(seed).UniformVec(n, 0, 50)
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Mechanism == nil {
		opts.Mechanism = mechanism.LRM{Options: fastOpts()}
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestSingleflight: N concurrent first requests for one workload must run
// Prepare exactly once, counted via the hook; the rest coalesce.
func TestSingleflight(t *testing.T) {
	var prepares atomic.Int64
	e := newTestEngine(t, Options{
		PrepareHook: func(string) { prepares.Add(1) },
	})
	w := testWorkload(1)
	x := testHistogram(w.Domain(), 2)
	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 0.5, Seed: int64(c)})
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if got := prepares.Load(); got != 1 {
		t.Fatalf("%d concurrent first requests ran Prepare %d times, want exactly 1", clients, got)
	}
	st := e.Stats()
	if st.Prepares != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one miss and one prepare", st)
	}
	if st.Hits+st.Coalesced != clients-1 {
		t.Fatalf("stats = %+v: %d requests should have hit or coalesced", st, clients-1)
	}
}

// TestLRUEviction pins the eviction order: with capacity 2, answering
// workloads A, B, A, C must evict B (least recently used), so B — and
// only B — prepares again.
func TestLRUEviction(t *testing.T) {
	perFP := make(map[string]int)
	var mu sync.Mutex
	e := newTestEngine(t, Options{
		CacheSize: 2,
		PrepareHook: func(fp string) {
			mu.Lock()
			perFP[fp]++
			mu.Unlock()
		},
	})
	a, b, c := testWorkload(10), testWorkload(11), testWorkload(12)
	fpA := core.Fingerprint(a.W)
	fpB := core.Fingerprint(b.W)
	fpC := core.Fingerprint(c.W)
	for _, w := range []*workload.Workload{a, b, a, c} {
		x := testHistogram(w.Domain(), 3)
		if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evictions != 1 || st.Cached != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 resident", st)
	}
	// A was freshened by its second answer, so C's arrival evicts B.
	for _, w := range []*workload.Workload{a, b} {
		x := testHistogram(w.Domain(), 4)
		if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{fpA: 1, fpB: 2, fpC: 1}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(perFP, want) {
		t.Fatalf("prepare counts per fingerprint = %v, want %v (B evicted, A retained)", perFP, want)
	}
}

// TestDiskCacheRoundTrip: a second engine sharing the cache directory
// must restore the decomposition from disk (no Prepare) and produce
// bit-for-bit the answers of the in-memory engine at the same seed.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(20)
	x := testHistogram(w.Domain(), 21)
	req := Request{Workload: w, Histograms: [][]float64{x}, Eps: 0.7, Seed: 99}

	var prepares1 atomic.Int64
	e1 := newTestEngine(t, Options{CacheDir: dir, PrepareHook: func(string) { prepares1.Add(1) }})
	got1, err := e1.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want one disk write", st)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.lrmd"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir files = %v (err %v), want one .lrmd", files, err)
	}
	if want := e1.artifactPath(core.Fingerprint(w.W), "", workload.AsSpec(w)); files[0] != want {
		t.Fatalf("cache file %q, want fingerprint-named %q", files[0], want)
	}

	var prepares2 atomic.Int64
	e2 := newTestEngine(t, Options{CacheDir: dir, PrepareHook: func(string) { prepares2.Add(1) }})
	got2, err := e2.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if prepares2.Load() != 0 {
		t.Fatalf("second engine ran Prepare %d times despite disk cache", prepares2.Load())
	}
	if st := e2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}
	if !reflect.DeepEqual(got1, got2) {
		t.Fatal("disk-restored decomposition answers differ from in-memory result")
	}
}

// TestDiskCacheCorruptFile: a poisoned cache file must not take down
// serving — the engine falls back to a fresh Prepare and overwrites it.
func TestDiskCacheCorruptFile(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(30)
	var prepares atomic.Int64
	e := newTestEngine(t, Options{CacheDir: dir, PrepareHook: func(string) { prepares.Add(1) }})
	path := e.artifactPath(core.Fingerprint(w.W), "", workload.AsSpec(w))
	if err := os.WriteFile(path, []byte("not a decomposition"), 0o644); err != nil {
		t.Fatal(err)
	}
	x := testHistogram(w.Domain(), 31)
	if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if prepares.Load() != 1 {
		t.Fatalf("corrupt cache file: Prepare ran %d times, want 1", prepares.Load())
	}
	if st := e.Stats(); st.DiskHits != 0 || st.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want no disk hit and one rewrite", st)
	}
	// The rewritten file must now load.
	if _, err := e.readArtifact(path, workload.AsSpec(w), 0); err != nil {
		t.Fatalf("rewritten cache file does not load: %v", err)
	}
}

// TestDiskCacheForgedFile: a well-formed .lrmd whose factors do NOT
// multiply back to W (here: zeroed, with metadata forged to match) must
// be rejected — shape and finiteness checks alone would accept it and
// silently serve garbage forever.
func TestDiskCacheForgedFile(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(35)
	var prepares atomic.Int64
	e := newTestEngine(t, Options{CacheDir: dir, PrepareHook: func(string) { prepares.Add(1) }})
	forged := &core.Decomposition{
		B:        mat.New(w.Queries(), 3),
		L:        mat.New(3, w.Domain()),
		Residual: math.Sqrt(mat.SquaredSum(w.W)), // "honest" residual of a zero factorization
	}
	var buf bytes.Buffer
	if err := forged.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := e.artifactPath(core.Fingerprint(w.W), "", workload.AsSpec(w))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	x := testHistogram(w.Domain(), 36)
	out, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if prepares.Load() != 1 {
		t.Fatalf("forged cache file accepted: Prepare ran %d times, want 1", prepares.Load())
	}
	allZero := true
	for _, v := range out[0] {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("answers are the forged zero factorization's output")
	}
}

// TestConcurrentAnswers hammers one engine from many goroutines over a
// mix of workloads; meaningful mainly under -race.
func TestConcurrentAnswers(t *testing.T) {
	e := newTestEngine(t, Options{CacheSize: 2})
	ws := []*workload.Workload{testWorkload(40), testWorkload(41), testWorkload(42)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				w := ws[(g+i)%len(ws)]
				xs := [][]float64{
					testHistogram(w.Domain(), int64(g)),
					testHistogram(w.Domain(), int64(i)),
					testHistogram(w.Domain(), int64(g+i)),
				}
				out, err := e.Answer(Request{Workload: w, Histograms: xs, Eps: 0.2, Seed: int64(g*100 + i)})
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) != len(xs) || len(out[0]) != w.Queries() {
					t.Errorf("answer shape %d×%d, want %d×%d", len(out), len(out[0]), len(xs), w.Queries())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.Answers != 8*10*3 {
		t.Fatalf("stats = %+v, want %d answers", st, 8*10*3)
	}
}

// TestRequestBudget: the per-request budget caps sequential composition
// across the batch.
func TestRequestBudget(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(50)
	mk := func(n int) [][]float64 {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = testHistogram(w.Domain(), int64(i))
		}
		return xs
	}
	// Budget exactly covers the batch.
	if _, err := e.Answer(Request{Workload: w, Histograms: mk(4), Eps: 0.25, Budget: 1.0}); err != nil {
		t.Fatalf("exact budget rejected: %v", err)
	}
	// One histogram too many.
	if _, err := e.Answer(Request{Workload: w, Histograms: mk(5), Eps: 0.25, Budget: 1.0}); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("overspending batch = %v, want ErrBudgetExhausted", err)
	}
}

// TestAnswerDeterministic: identical seeded requests produce identical
// releases. What a seeded release equals is pinned by
// TestSeededReleaseIsOneStream.
func TestAnswerDeterministic(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(60)
	xs := [][]float64{
		testHistogram(w.Domain(), 61),
		testHistogram(w.Domain(), 62),
		testHistogram(w.Domain(), 63),
	}
	req := Request{Workload: w, Histograms: xs, Eps: 0.5, Seed: 7}
	a, err := e.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical requests produced different releases")
	}
}

// TestRequestFingerprint: a caller-supplied fingerprint shares the cache
// across distinct workload pointers without touching the pointer memo
// (the HTTP server builds a fresh matrix per request; memoizing those
// pointers would only pin dead matrices).
func TestRequestFingerprint(t *testing.T) {
	var prepares atomic.Int64
	e := newTestEngine(t, Options{PrepareHook: func(string) { prepares.Add(1) }})
	w1 := testWorkload(95)
	w2 := testWorkload(95) // same content, different allocation
	fp := core.Fingerprint(w1.W)
	if fp != core.Fingerprint(w2.W) {
		t.Fatal("identical workloads fingerprint differently")
	}
	x := testHistogram(w1.Domain(), 96)
	for _, w := range []*workload.Workload{w1, w2} {
		if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1, Fingerprint: fp}); err != nil {
			t.Fatal(err)
		}
	}
	if prepares.Load() != 1 {
		t.Fatalf("Prepare ran %d times for one fingerprint, want 1", prepares.Load())
	}
	e.memoMu.RLock()
	memoLen := len(e.memo)
	e.memoMu.RUnlock()
	if memoLen != 0 {
		t.Fatalf("pointer memo has %d entries despite caller-supplied fingerprints", memoLen)
	}
}

// TestAnswerResident: a request that names its workload by fingerprint
// alone is served by the resident preparation exactly as the request
// carrying W is, is held to the same histogram checks, and fails with
// ErrNotResident, counting nothing, once no preparation is resident.
func TestAnswerResident(t *testing.T) {
	e := newTestEngine(t, Options{CacheSize: 1})
	w := testWorkload(98)
	fp := core.Fingerprint(w.W)
	x := [][]float64{testHistogram(w.Domain(), 99), testHistogram(w.Domain(), 100)}
	if _, err := e.Answer(Request{Fingerprint: fp, Histograms: x, Eps: 1}); !errors.Is(err, ErrNotResident) {
		t.Fatalf("cold fingerprint-only request: err %v, want ErrNotResident", err)
	}
	if st := e.Stats(); st != (Stats{}) {
		t.Fatalf("a refused fingerprint-only request moved the counters: %+v", st)
	}
	want, err := e.Answer(Request{Workload: w, Histograms: x, Eps: 1, Seed: 7, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Answer(Request{Fingerprint: fp, Histograms: x, Eps: 1, Seed: 7})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("fingerprint-only release %v, %v; with W %v", got, err, want)
	}
	if _, err := e.Answer(Request{Fingerprint: fp, Histograms: [][]float64{{1}}, Eps: 1}); err == nil {
		t.Fatal("fingerprint-only request with a wrong-length histogram was answered")
	}
	if _, err := e.Answer(Request{Fingerprint: fp, Histograms: x, Eps: 1, Budget: 1}); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("fingerprint-only request over its own cap: err %v, want ErrBudgetExhausted", err)
	}
	if st := e.Stats(); st.Requests != 2 || st.Hits != 1 || st.Prepares != 1 {
		t.Fatalf("stats = %+v, want 2 requests, 1 hit, 1 prepare", st)
	}
	other := testWorkload(101)
	if _, err := e.Answer(Request{Workload: other, Histograms: [][]float64{testHistogram(other.Domain(), 1)}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Answer(Request{Fingerprint: fp, Histograms: x, Eps: 1}); !errors.Is(err, ErrNotResident) {
		t.Fatalf("evicted fingerprint-only request: err %v, want ErrNotResident", err)
	}
}

// TestUnseededNoiseUnpredictable: with no Seed (the production mode),
// identical requests must NOT produce identical noise — a repeatable
// release would let anyone subtract the noise and recover exact answers.
func TestUnseededNoiseUnpredictable(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(97)
	x := testHistogram(w.Domain(), 98)
	req := Request{Workload: w, Histograms: [][]float64{x, x}, Eps: 0.5}
	a, err := e.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Answer(req)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("two unseeded releases in one batch drew identical noise")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("two unseeded requests drew identical noise")
	}
}

// TestDiskCacheKeyedOnOptions: two LRM engines with different tuning
// sharing a directory must not serve each other's factorizations.
func TestDiskCacheKeyedOnOptions(t *testing.T) {
	dir := t.TempDir()
	w := testWorkload(99)
	x := testHistogram(w.Domain(), 100)
	var p1, p2 atomic.Int64
	e1 := newTestEngine(t, Options{CacheDir: dir, PrepareHook: func(string) { p1.Add(1) }})
	e2 := newTestEngine(t, Options{
		Mechanism:   mechanism.LRM{Options: core.Options{MaxOuterIter: 5, MaxInnerIter: 2, MaxNesterovIter: 5, Rank: 2}},
		CacheDir:    dir,
		PrepareHook: func(string) { p2.Add(1) },
	})
	if _, err := e1.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if p1.Load() != 1 || p2.Load() != 1 {
		t.Fatalf("prepares = %d, %d: differently tuned engines must not share cache files", p1.Load(), p2.Load())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.lrmd"))
	if len(files) != 2 {
		t.Fatalf("cache dir has %d files, want 2 (one per options digest): %v", len(files), files)
	}
}

// TestAnswerValidation covers the request-shape errors.
func TestAnswerValidation(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(70)
	good := [][]float64{testHistogram(w.Domain(), 71)}
	if _, err := e.Answer(Request{Histograms: good, Eps: 1}); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, err := e.Answer(Request{Workload: w, Eps: 1}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: good, Eps: 0}); err == nil {
		t.Fatal("zero eps accepted")
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{{1, 2}}, Eps: 1}); err == nil {
		t.Fatal("wrong-length histogram accepted")
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: good, Eps: 1, Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestAnswerAfterClose: Close is real shutdown — later Answer calls are
// refused with the sentinel, and Close is idempotent.
func TestAnswerAfterClose(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(80)
	xs := [][]float64{testHistogram(w.Domain(), 81), testHistogram(w.Domain(), 82)}
	if _, err := e.Answer(Request{Workload: w, Histograms: xs, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: xs, Eps: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("answer after close = %v, want ErrClosed", err)
	}
}

// TestNonLRMMechanism: the engine serves any Mechanism; disk caching is
// simply skipped when the Prepared has no decomposition to persist.
func TestNonLRMMechanism(t *testing.T) {
	e := newTestEngine(t, Options{Mechanism: mechanism.LaplaceData{}, CacheDir: t.TempDir()})
	w := testWorkload(90)
	x := testHistogram(w.Domain(), 91)
	if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DiskWrites != 0 || st.Prepares != 1 {
		t.Fatalf("stats = %+v, want one prepare and no disk writes for LM", st)
	}
}
