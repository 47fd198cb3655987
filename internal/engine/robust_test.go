package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lrm/internal/core"
	"lrm/internal/faultfs"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/workload"
)

func testAccountant(t *testing.T, total privacy.Epsilon) *privacy.Accountant {
	t.Helper()
	a, err := privacy.OpenAccountant(privacy.AccountantOptions{DefaultTotal: total})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTenantSpend: a tenant-tagged request charges exactly Eps×B against
// the tenant's durable budget, and an exhausted tenant is refused with
// no partial spend.
func TestTenantSpend(t *testing.T) {
	acct := testAccountant(t, 1.0)
	e := newTestEngine(t, Options{Accountant: acct})
	w := testWorkload(300)
	xs := [][]float64{testHistogram(w.Domain(), 301), testHistogram(w.Domain(), 302)}
	if _, err := e.Answer(Request{Workload: w, Histograms: xs, Eps: 0.2, Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if got := float64(acct.Spent("alice")); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("tenant spent %v, want 0.4 (0.2 × 2 histograms)", got)
	}
	// 0.4 spent, 0.6 left: a 2×0.4 request overdraws and must not spend.
	if _, err := e.Answer(Request{Workload: w, Histograms: xs, Eps: 0.4, Tenant: "alice"}); !errors.Is(err, privacy.ErrBudgetExhausted) {
		t.Fatalf("overdraw = %v, want ErrBudgetExhausted", err)
	}
	if got := float64(acct.Spent("alice")); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("refused request moved spent to %v, want unchanged 0.4", got)
	}
	// Untagged requests are not accounted.
	if _, err := e.Answer(Request{Workload: w, Histograms: xs, Eps: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := float64(acct.Spent("alice")); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("untagged request charged alice: spent %v", got)
	}
}

// TestCancelledRequestSpendsNothing: cancellation before the commit
// point — at entry or while the Prepare runs — costs the tenant zero ε.
func TestCancelledRequestSpendsNothing(t *testing.T) {
	acct := testAccountant(t, 1.0)
	ctx, cancel := context.WithCancel(context.Background())

	// Cancel mid-Prepare: the hook fires inside the preparation, after
	// admission but before the commit point.
	var e *Engine
	e = newTestEngine(t, Options{
		Accountant:  acct,
		PrepareHook: func(string) { cancel() },
	})
	w := testWorkload(320)
	x := testHistogram(w.Domain(), 321)
	req := Request{Context: ctx, Workload: w, Histograms: [][]float64{x}, Eps: 0.5, Tenant: "alice"}
	if _, err := e.Answer(req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled answer = %v, want context.Canceled", err)
	}
	if got := float64(acct.Spent("alice")); got != 0 {
		t.Fatalf("cancelled request spent %v ε, want 0", got)
	}
	// Already-cancelled context is refused at entry; the warm cache
	// entry from the aborted request must not change that.
	if _, err := e.Answer(req); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled answer = %v, want context.Canceled", err)
	}
	if got := float64(acct.Spent("alice")); got != 0 {
		t.Fatalf("pre-cancelled request spent %v ε, want 0", got)
	}
	// A live caller then pays normally.
	req.Context = context.Background()
	if _, err := e.Answer(req); err != nil {
		t.Fatal(err)
	}
	if got := float64(acct.Spent("alice")); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("live request spent %v, want 0.5", got)
	}
}

// TestCloseClosesAccountant: Close flushes and closes the accountant's
// WAL; further spends through any path are refused.
func TestCloseClosesAccountant(t *testing.T) {
	dir := t.TempDir()
	acct, err := privacy.OpenAccountant(privacy.AccountantOptions{Dir: dir, DefaultTotal: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Options{Accountant: acct})
	w := testWorkload(330)
	x := testHistogram(w.Domain(), 331)
	if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 0.25, Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := acct.Spend("alice", 0.1); !errors.Is(err, privacy.ErrAccountantClosed) {
		t.Fatalf("spend on closed accountant = %v, want ErrAccountantClosed", err)
	}
	// The spend survived to disk.
	b, err := privacy.OpenAccountant(privacy.AccountantOptions{Dir: dir, DefaultTotal: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := float64(b.Spent("alice")); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("replayed spent %v, want 0.25", got)
	}
}

// TestWarmPeek: Warm reports residency without perturbing the LRU or
// hit counters.
func TestWarmPeek(t *testing.T) {
	e := newTestEngine(t, Options{})
	w := testWorkload(340)
	x := testHistogram(w.Domain(), 341)
	fp := e.fingerprint(w.W)
	if e.Warm(fp) {
		t.Fatal("cold fingerprint reported warm")
	}
	if _, err := e.Answer(Request{Workload: w, Histograms: [][]float64{x}, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if !e.Warm(fp) {
		t.Fatal("prepared fingerprint reported cold")
	}
	if after := e.Stats(); after.Hits != before.Hits {
		t.Fatalf("Warm moved the hit counter %d → %d", before.Hits, after.Hits)
	}
}

// TestDiskCacheCrashSweep kills the cache-persistence path at every
// injectable point — mid-encode, at the temp fsync, at the rename, at
// the directory fsync — in both clean and torn-tail mode, and asserts
// the recovery engine on the real disk always serves correct answers:
// either the artifacts are complete (disk hit) or their absence or
// corruption degrades to one fresh Prepare. It sweeps every engine kind
// × workload kind — fixed and planned engines, dense W and a Kronecker
// spec — so each artifact the load pipeline writes (.lrmd, .lrmk,
// .plan.json) is crashed at every point. This is the regression test for
// the fsync-before-rename fix: before it, a torn rename could leave a
// truncated .lrmd under the final name.
func TestDiskCacheCrashSweep(t *testing.T) {
	w := testWorkload(350)
	s := lowRankKronSpec(352)
	for _, tc := range []struct {
		name    string
		planned bool
		req     Request
		domain  int
		queries int
	}{
		{"fixed-dense", false, Request{Workload: w}, w.Domain(), w.Queries()},
		{"fixed-kron", false, Request{Spec: s}, s.Domain(), s.Queries()},
		{"planned-dense", true, Request{Workload: w}, w.Domain(), w.Queries()},
		{"planned-kron", true, Request{Spec: s}, s.Domain(), s.Queries()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.Histograms = [][]float64{testHistogram(tc.domain, 351)}
			req.Eps = 1
			engineOpts := func(dir string, fs faultfs.FS, hook func(string)) Options {
				opts := Options{CacheDir: dir, FS: fs, PrepareHook: hook}
				if tc.planned {
					opts.Planner = &plan.Options{LRM: fastOpts()}
				} else {
					opts.Mechanism = mechanism.LRM{Options: fastOpts()}
				}
				return opts
			}
			base := t.TempDir()
			run := 0
			scenario := func(fs faultfs.FS) error {
				dir := filepath.Join(base, fmt.Sprintf("run%d", run))
				run++
				e, err := New(engineOpts(dir, fs, nil))
				if err != nil {
					return err
				}
				defer e.Close()
				// The disk write is best-effort, so a faulted Answer may still
				// succeed; probe the write explicitly so every fs op is reached.
				if _, err := e.Answer(req); err != nil {
					return err
				}
				if st := e.Stats(); st.DiskWrites != 1 {
					return fmt.Errorf("cache write failed")
				}
				if ds := e.Decisions(); tc.planned && (len(ds) != 1 || ds[0].Mechanism != "lrm") {
					return fmt.Errorf("decisions %+v, want an lrm winner (a decomposition to crash)", ds)
				}
				return nil
			}
			lastDir := func() string { return filepath.Join(base, fmt.Sprintf("run%d", run-1)) }

			points, err := faultfs.Points(scenario)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) < 5 {
				t.Fatalf("only %d failure points (%v); want writes, syncs, a create, and a rename", len(points), points)
			}
			for _, torn := range []bool{false, true} {
				for _, pt := range points {
					inj := faultfs.New(pt.Faults(torn))
					scenario(inj)
					if !inj.Tripped() {
						continue
					}
					var prepares int
					e, err := New(engineOpts(lastDir(), nil, func(string) { prepares++ }))
					if err != nil {
						t.Fatalf("point %s (torn=%v): recovery engine: %v", pt, torn, err)
					}
					out, err := e.Answer(req)
					if err != nil || len(out) != 1 || len(out[0]) != tc.queries {
						t.Fatalf("point %s (torn=%v): recovery answer = %v (len %d)", pt, torn, err, len(out))
					}
					st := e.Stats()
					if st.DiskHits+uint64(prepares) != 1 {
						t.Fatalf("point %s (torn=%v): diskHits=%d prepares=%d, want exactly one source of the preparation",
							pt, torn, st.DiskHits, prepares)
					}
					e.Close()
				}
			}
		})
	}
}

// TestCorruptPlanAndDecompositionFallBack: byte-level corruption of the
// persisted .plan.json, .lrmd and .lrmk artifacts must degrade to a
// fresh Prepare (or re-plan), never to an error or a poisoned answer —
// on fixed and planned engines, for dense W and Kronecker specs alike.
func TestCorruptPlanAndDecompositionFallBack(t *testing.T) {
	w := testWorkload(360)
	s := lowRankKronSpec(362)
	for _, in := range []struct {
		kind string
		req  Request
		n    int
	}{
		{"dense", Request{Workload: w}, w.Domain()},
		{"kron", Request{Spec: s}, s.Domain()},
	} {
		req := in.req
		req.Histograms = [][]float64{testHistogram(in.n, 361)}
		req.Eps = 1
		for _, planned := range []bool{false, true} {
			dir := t.TempDir()
			opts := Options{CacheDir: dir}
			if planned {
				opts.Planner = &plan.Options{LRM: fastOpts()}
			} else {
				opts.Mechanism = mechanism.LRM{Options: fastOpts()}
			}
			e, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Answer(req); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			names, err := faultfs.Disk.ReadDir(dir)
			if err != nil || len(names) == 0 {
				t.Fatalf("%s planned=%v: cache dir holds %v (%v)", in.kind, planned, names, err)
			}
			corruptFiles(t, dir, names)

			var prepares int
			opts.PrepareHook = func(string) { prepares++ }
			e2, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			out, err := e2.Answer(req)
			if err != nil || len(out) != 1 {
				t.Fatalf("%s planned=%v: answer over corrupt cache = %v", in.kind, planned, err)
			}
			if prepares != 1 {
				t.Fatalf("%s planned=%v: %d prepares over corrupt cache, want exactly 1 fresh one", in.kind, planned, prepares)
			}
			if st := e2.Stats(); st.DiskHits != 0 {
				t.Fatalf("%s planned=%v: corrupt artifacts counted as disk hits: %+v", in.kind, planned, st)
			}
			e2.Close()
		}
	}
}

// TestCacheDirLayout pins the cache directory's file-name grammar (see
// artifactPath) for every engine kind × workload kind × plan winner. A
// directory written by an earlier build keeps restoring only while these
// names hold, and a cache-directory GC parses exactly this grammar.
func TestCacheDirLayout(t *testing.T) {
	const (
		hex64 = `[0-9a-f]{64}`
		opts  = `-[0-9a-f]{8}`
		pdig  = `-[0-9a-f]{16}`
	)
	planned := &plan.Options{LRM: fastOpts()}
	kronLM, err := workload.ParseSpec("kron:prefix(16)xprefix(16)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		planner *plan.Options // nil: a fixed LRM engine
		req     Request
		lrm     bool     // a planned engine's winner is the LRM
		files   []string // one pattern per file, in sorted name order
	}{
		{"fixed-dense", nil, Request{Workload: testWorkload(370)}, false,
			[]string{hex64 + opts + `\.lrmd`}},
		{"fixed-kron", nil, Request{Spec: lowRankKronSpec(371)}, false,
			[]string{`spec-` + hex64 + opts + `\.lrmk`}},
		{"planned-lrm-dense", planned, Request{Workload: testWorkload(372)}, true,
			[]string{hex64 + opts + pdig + `\.lrmd`, hex64 + opts + `\.plan\.json`}},
		{"planned-lrm-kron", planned, Request{Spec: lowRankKronSpec(373)}, true,
			[]string{`spec-` + hex64 + opts + pdig + `\.lrmk`, `spec-` + hex64 + opts + `\.plan\.json`}},
		{"planned-baseline-dense", planned, Request{Workload: workload.Identity(10)}, false,
			[]string{hex64 + opts + `\.plan\.json`}},
		{"planned-baseline-kron", &plan.Options{}, Request{Spec: kronLM}, false,
			[]string{`spec-` + hex64 + opts + `\.plan\.json`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			o := Options{CacheDir: dir, Planner: tc.planner}
			if tc.planner == nil {
				o.Mechanism = mechanism.LRM{Options: fastOpts()}
			}
			e, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			req := tc.req
			fp, n := "", 0
			if req.Spec != nil {
				fp, n = workload.SpecFingerprint(req.Spec), req.Spec.Domain()
			} else {
				fp, n = core.Fingerprint(req.Workload.W), req.Workload.Domain()
			}
			req.Histograms = [][]float64{testHistogram(n, 374)}
			req.Eps = 1
			if _, err := e.Answer(req); err != nil {
				t.Fatal(err)
			}
			ds := e.Decisions()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.planner != nil && (len(ds) != 1 || (ds[0].Mechanism == "lrm") != tc.lrm) {
				t.Fatalf("decisions %+v, want one plan with an lrm winner = %v", ds, tc.lrm)
			}
			names, err := faultfs.Disk.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(names)
			if len(names) != len(tc.files) {
				t.Fatalf("cache dir holds %q, want %d files matching %q", names, len(tc.files), tc.files)
			}
			for i, name := range names {
				if !regexp.MustCompile(`^` + tc.files[i] + `$`).MatchString(name) {
					t.Errorf("file %q does not match %q", name, tc.files[i])
				}
				if !strings.HasPrefix(name, fp+"-") {
					t.Errorf("file %q is not keyed by the workload fingerprint %s", name, fp)
				}
				if len(ds) == 1 && strings.Contains(tc.files[i], pdig) && !strings.Contains(name, "-"+ds[0].Digest+".") {
					t.Errorf("file %q is not keyed by the plan digest %s", name, ds[0].Digest)
				}
			}
		})
	}
}

// corruptFiles truncates each file to half and flips a byte, simulating
// a torn write under the pre-fix cache (rename of an unsynced temp).
func corruptFiles(t *testing.T, dir string, names []string) {
	t.Helper()
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := faultfs.Disk.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		n, _ := f.Read(buf)
		f.Close()
		if n == 0 {
			t.Fatalf("%s is empty before corruption", name)
		}
		half := buf[:(n+1)/2]
		if len(half) > 0 {
			half[len(half)/2] ^= 0xff
		}
		g, err := faultfs.Disk.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Write(half); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
