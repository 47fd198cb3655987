// Command lrmserve serves ε-differentially-private batch query answering
// over HTTP, fronting the repository's concurrent answering engine
// (internal/engine): workload decompositions are prepared once, cached in
// memory (LRU, singleflight) and optionally on disk, then amortized over
// every subsequent request.
//
// Usage:
//
//	lrmserve -addr :8080 -mech lrm -cache-dir /var/cache/lrm
//	lrmserve -mech auto                      # plan per workload: analyze, score the
//	                                         # candidates, serve the winner (decisions
//	                                         # appear under "plans" in GET /stats)
//	lrmserve -mech auto -plan-candidates lrm,lm,nor,wm
//	lrmserve -coalesce-window 2ms            # merge concurrent same-workload requests
//	lrmserve -budget-dir /var/lib/lrm -tenant-eps 'default=10,acme=2.5'
//	                                         # durable per-tenant ε accounting (see below)
//	lrmserve -max-inflight 8 -queue 16 -deadline 5s
//	                                         # bounded admission + per-request deadlines
//	lrmserve -audit-seeds                    # accept "seed" on the wire (debug/audit only)
//
// Per-tenant ε accounting (-tenant-eps): each item is tenant=ε, or a
// bare ε that becomes the default cap for tenants not listed. Requests
// carry a "tenant" field (empty means "default"); a request's total ε —
// eps × histograms — is charged against the tenant's budget at the
// commit point, and an exhausted tenant gets 429. With -budget-dir the
// accounting is durable: every grant is fsynced to a per-tenant
// write-ahead log before it is issued, so a crash can over-count ε but
// never refund it, and a restart resumes from the logged spend.
//
// Admission control (-max-inflight, -queue, -retry-after): at most
// -max-inflight answer requests run concurrently; up to -queue more wait
// behind them; the rest get 429 with a Retry-After hint. Under pressure
// the server degrades in cost order — requests whose workload is not
// already prepared (cold) are shed first, so cheap warm answers keep
// flowing while expensive decompositions wait for calm. -deadline bounds
// each request end to end; the deadline propagates through the
// coalescer into the engine, and a request cancelled before its commit
// point spends none of its tenant's ε.
//
// With -coalesce-window, concurrent POST /answer requests for the same
// workload fingerprint and ε (unseeded and unbudgeted only) are held up
// to the window and answered as one engine batch through the multi-RHS
// path; each caller receives exactly its own rows.
//
// Endpoints:
//
//	POST /answer
//	    Request body (JSON):
//	        {
//	          "workload":   [[...], ...],   // m×n query matrix W, OR
//	          "spec":       "prefix(1024)", // implicit workload spec (see below)
//	          "histograms": [[...], ...],   // one or more length-n databases
//	          "eps":        0.5,            // per-histogram release budget
//	          "budget":     1.0,            // optional total ε cap for the request
//	          "seed":       7               // only with -audit-seeds: pins the request's one
//	                                        // noise stream, drawn histogram by histogram in
//	                                        // order; without the flag a non-zero seed is a
//	                                        // 400 (a known seed makes the noise subtractable)
//	        }
//	    Response body: {"answers": [[...], ...], "fingerprint": "..."}
//	    Exactly one of "workload" and "spec" must be set. A spec names the
//	    queries structurally — prefix(N), ranges(N), identity(N), total(N),
//	    marginals(n1,…,nd;k=K), or kron:<factor>x<factor>x… — and is served
//	    without ever materializing the matrix, so Kronecker specs with
//	    trillions of cells answer in megabytes. Requests whose eps is zero,
//	    negative, or non-finite, or whose spec is unknown or malformed, are
//	    rejected with 400 before any engine work; a body over -max-body is
//	    rejected with 413.
//
//	    The body is decoded in one pass by a purpose-built decoder
//	    (decodeAnswer). It accepts the JSON encoding/json would accept for
//	    this shape (keys matched case-insensitively, the last of a
//	    repeated key winning, null leaving a number or string unchanged),
//	    except that it rejects bytes after the object and null inside the
//	    numeric arrays. A repeated inline workload is served from the
//	    warm-W memo: when the body at the "workload" value starts with
//	    the exact text of a memoized value, the decoder skips that text,
//	    and the engine answers the memoized fingerprint without W, so a
//	    warm request skips validating, parsing, hashing and
//	    fingerprinting W. A W is memoized when its fingerprint is already
//	    prepared as its request arrives (from its second sighting on);
//	    the memo holds at most 16 texts and 256 MiB of them, and GET
//	    /stats reports its entries, bytes, hits and misses.
//
//	    The 200 response is written by writeAnswer (encode.go), not by
//	    encoding/json: its bytes are those of json.Marshal and a newline,
//	    appended into a pooled buffer sized from the batch. Floats take
//	    encoding/json's shortest round-trip form, formatted by Ryu in
//	    the 'f' range [1e-6, 1e21) and by strconv outside it. A
//	    non-finite answer is a 500 with encoding/json's error.
//	GET /stats
//	    Engine counter snapshot (cache hits/misses, prepares, planned,
//	    evictions, disk traffic, requests, answers) plus the serving
//	    mechanism, the warm-W memo counters, and on -mech auto the
//	    per-workload plan decisions.
//	GET /healthz
//	    200 once serving.
//
// The server shuts down gracefully on SIGINT/SIGTERM: listeners stop,
// in-flight requests finish, then the engine's worker pool is released.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lrm/internal/engine"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		mechName   = flag.String("mech", "lrm", "serving mechanism: lrm, lm, nor, wm, hm, mm, fpa, cm, nf, sf — or 'auto' to plan per workload")
		coeffs     = flag.Int("coeffs", 0, "fpa: retained Fourier coefficients / cm: measurements / nf, sf: buckets (0 = mechanism default)")
		candidates = flag.String("plan-candidates", "", "auto: comma-separated candidate mechanisms to score (empty = lrm,lm,nor)")
		cacheDir   = flag.String("cache-dir", "", "directory for persisted decompositions and plans (empty = memory only)")
		cacheSize  = flag.Int("cache-size", 64, "max prepared workloads resident in memory")
		maxBody    = flag.Int64("max-body", 64<<20, "maximum request body size in bytes")
		coWindow   = flag.Duration("coalesce-window", 0, "hold concurrent same-workload answer requests up to this long and answer them as one engine batch (0 = disabled)")
		coMax      = flag.Int("coalesce-max", 64, "flush a coalescing window early once it holds this many histograms")

		budgetDir   = flag.String("budget-dir", "", "directory for durable per-tenant ε write-ahead logs (empty = in-memory accounting)")
		tenantEps   = flag.String("tenant-eps", "", "per-tenant ε caps: 'tenant=eps,...'; a bare eps is the default cap for unlisted tenants (empty = no tenant accounting)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently running answer requests (0 = unbounded, admission control off)")
		queueLen    = flag.Int("queue", 0, "max answer requests waiting behind -max-inflight before 429 (0 = 2×max-inflight)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429 overload responses")
		deadline    = flag.Duration("deadline", 0, "per-request deadline, propagated through the engine (0 = none)")
		auditSeeds  = flag.Bool("audit-seeds", false, "accept a non-zero \"seed\" in /answer bodies, which pins the release's noise (debug/audit only: a known seed lets anyone subtract the noise)")
	)
	flag.Parse()

	log.Printf("lrmserve: kernel tier %s", mat.KernelTier())

	engOpts := engine.Options{
		CacheSize: *cacheSize,
		CacheDir:  *cacheDir,
	}
	served := *mechName
	if *mechName == "auto" {
		// Plan-aware serving: each workload is analyzed on first sight and
		// served by the candidate the planner scores best; decisions show
		// up under "plans" in GET /stats. Candidate typos must die here,
		// at startup — not as a 400 on every subsequent request.
		cands := splitCandidates(*candidates)
		for _, name := range cands {
			if _, err := mechanism.ByName(name, mechanism.Config{Coeffs: *coeffs}); err != nil {
				log.Fatalf("lrmserve: -plan-candidates: %v", err)
			}
		}
		engOpts.Planner = &plan.Options{
			Config:     mechanism.Config{Coeffs: *coeffs},
			Mechanisms: cands,
		}
	} else {
		mech, err := mechanism.ByName(*mechName, mechanism.Config{Coeffs: *coeffs})
		if err != nil {
			log.Fatalf("lrmserve: %v", err)
		}
		engOpts.Mechanism = mech
		served = mech.Name()
	}
	if *budgetDir != "" && *tenantEps == "" {
		log.Fatal("lrmserve: -budget-dir requires -tenant-eps (no tenant caps configured)")
	}
	if *tenantEps != "" {
		def, totals, err := parseTenantEps(*tenantEps)
		if err != nil {
			log.Fatalf("lrmserve: -tenant-eps: %v", err)
		}
		acct, err := privacy.OpenAccountant(privacy.AccountantOptions{
			Dir:          *budgetDir,
			DefaultTotal: def,
			Totals:       totals,
		})
		if err != nil {
			log.Fatalf("lrmserve: opening accountant: %v", err)
		}
		engOpts.Accountant = acct // the engine owns it now; eng.Close closes it
	}
	eng, err := engine.New(engOpts)
	if err != nil {
		log.Fatalf("lrmserve: %v", err)
	}
	var co *coalescer
	if *coWindow > 0 {
		co = newCoalescer(eng, *coWindow, *coMax)
	}
	var adm *admission
	if *maxInflight > 0 {
		q := *queueLen
		if q <= 0 {
			q = 2 * *maxInflight
		}
		adm = newAdmission(*maxInflight, q, *retryAfter)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(eng, handlerConfig{mech: served, maxBody: *maxBody, co: co, adm: adm, deadline: *deadline, auditSeeds: *auditSeeds}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("lrmserve: serving %s on %s (cache %d, dir %q)", served, *addr, *cacheSize, *cacheDir)

	select {
	case err := <-errc:
		log.Fatalf("lrmserve: %v", err)
	case <-ctx.Done():
	}
	log.Print("lrmserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("lrmserve: shutdown: %v", err)
	}
	// Closing the engine flushes and closes the accountant's write-ahead
	// logs; a failure here means the last durable state is whatever the
	// per-grant fsyncs already persisted — report it, don't hide it.
	if err := eng.Close(); err != nil {
		log.Printf("lrmserve: close: %v", err)
	}
}

// parseTenantEps parses the -tenant-eps list: comma-separated items,
// each either tenant=eps or a bare eps that becomes the default cap for
// unlisted tenants.
func parseTenantEps(s string) (def privacy.Epsilon, totals map[string]privacy.Epsilon, err error) {
	totals = make(map[string]privacy.Epsilon)
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, found := strings.Cut(item, "=")
		if !found {
			val, name = name, ""
		} else if strings.TrimSpace(name) == "" {
			return 0, nil, fmt.Errorf("empty tenant name in %q", item)
		}
		eps, perr := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if perr != nil || privacy.Epsilon(eps).Validate() != nil {
			return 0, nil, fmt.Errorf("bad epsilon in %q", item)
		}
		if name = strings.TrimSpace(name); name == "" {
			if def != 0 {
				return 0, nil, fmt.Errorf("duplicate default epsilon %q", item)
			}
			def = privacy.Epsilon(eps)
		} else {
			if _, dup := totals[name]; dup {
				return 0, nil, fmt.Errorf("duplicate tenant %q", name)
			}
			totals[name] = privacy.Epsilon(eps)
		}
	}
	return def, totals, nil
}

// answerResponse is the POST /answer JSON response. writeAnswer writes
// the bytes json.Marshal gives it without building one.
type answerResponse struct {
	Answers     [][]float64 `json:"answers"`
	Fingerprint string      `json:"fingerprint"`
}

// statsResponse is the GET /stats JSON response. Plans is populated on
// an auto (plan-aware) server: one decision per planned workload still
// resident in the cache. Tenants is populated when tenant accounting is
// on: per-tenant total, spent, and remaining ε. Admission is populated
// when -max-inflight bounds concurrency. Kernels reports which GEMM
// micro-kernel tier this process answers with.
type statsResponse struct {
	Mechanism string                 `json:"mechanism"`
	Engine    engine.Stats           `json:"engine"`
	Plans     []engine.PlanDecision  `json:"plans,omitempty"`
	Tenants   []privacy.TenantStatus `json:"tenants,omitempty"`
	Admission *admissionStats        `json:"admission,omitempty"`
	Memo      memoStats              `json:"memo"`
	Kernels   kernelStats            `json:"kernels"`
}

// kernelStats is the /stats kernels section: the GEMM kernel tier every
// product runs on this host. The tiers are bit-compatible by
// construction, so it describes speed only — never output bits.
type kernelStats struct {
	Tier string `json:"tier"`
}

// splitCandidates parses the -plan-candidates list; empty means the
// planner's default set.
func splitCandidates(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// handlerConfig bundles the knobs newHandler needs beyond the engine.
type handlerConfig struct {
	mech     string
	maxBody  int64
	co       *coalescer    // nil = coalescing disabled
	adm      *admission    // nil = unbounded admission
	deadline time.Duration // 0 = no per-request deadline
	memo     *wMemo        // nil = a fresh warm-W memo
	// auditSeeds accepts a non-zero "seed" on the wire (-audit-seeds);
	// without it such a request is a 400.
	auditSeeds bool
}

// newHandler builds the HTTP mux over an engine. Split from main so tests
// can drive it with httptest.
func newHandler(eng *engine.Engine, cfg handlerConfig) http.Handler {
	if cfg.memo == nil {
		cfg.memo = newWMemo()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/answer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		req, status, err := decodeRequest(w, r, eng, cfg)
		if err != nil {
			httpError(w, status, "%v", err)
			return
		}
		sp, fp := req.sp, req.fp
		tenant := req.Tenant
		if tenant == "" && eng.Accountant() != nil {
			tenant = "default"
		}

		// The request's context carries the client disconnect and the
		// configured deadline through the coalescer and the engine: a
		// request cancelled before its commit point spends no ε.
		ctx := r.Context()
		if cfg.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
			defer cancel()
		}

		if cfg.adm != nil {
			// Bounded admission: warm requests may queue, cold ones need
			// a free slot now (shedding the expensive Prepare is the
			// first stage of degradation). The slot is held for the
			// request's whole engine phase.
			if err := cfg.adm.acquire(ctx, !eng.Warm(fp)); err != nil {
				httpRequestError(w, cfg, err)
				return
			}
			defer cfg.adm.release()
		}

		// answer sends the request to the engine with W as wl: nil on a
		// memo hit, which names W by its fingerprint alone.
		answer := func(wl *workload.Workload) ([][]float64, error) {
			if cfg.co != nil && sp == nil && req.Seed == 0 && req.Budget == 0 {
				// Mergeable request: validate shapes first — inside a
				// merged batch a malformed histogram would fail the
				// whole group, not just its sender — then join the
				// coalescing window.
				if err := validateHistograms(req.Histograms, req.domain()); err != nil {
					return nil, err
				}
				return cfg.co.submit(ctx, wl, fp, req.Histograms, req.Eps, tenant)
			}
			return eng.Answer(engine.Request{
				Context:     ctx,
				Workload:    wl,
				Spec:        sp,
				Histograms:  req.Histograms,
				Eps:         privacy.Epsilon(req.Eps),
				Budget:      privacy.Epsilon(req.Budget),
				Seed:        req.Seed,
				Tenant:      tenant,
				Fingerprint: fp,
			})
		}
		answers, err := answer(req.wl)
		if errors.Is(err, engine.ErrNotResident) && req.hit != nil {
			// The engine evicted the memo hit's preparation: parse the
			// memoized text and send the request again with W.
			var wl *workload.Workload
			if wl, err = req.hit.build(); err == nil {
				answers, err = answer(wl)
			}
		}
		if err != nil {
			httpRequestError(w, cfg, err)
			return
		}
		writeAnswer(w, answers, fp)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		resp := statsResponse{
			Mechanism: cfg.mech,
			Engine:    eng.Stats(),
			Plans:     eng.Decisions(),
			Memo:      cfg.memo.stats(),
			Kernels:   kernelStats{Tier: mat.KernelTier()},
		}
		if acct := eng.Accountant(); acct != nil {
			resp.Tenants = acct.Tenants()
		}
		if cfg.adm != nil {
			resp.Admission = cfg.adm.stats()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// httpRequestError maps an answer-path failure to its HTTP shape.
// Overload and budget exhaustion are 429 (the former with a Retry-After
// hint — the caller should come back, just not yet); a blown deadline is
// 503 (the server was too loaded to answer in time); everything else is
// the caller's fault.
func httpRequestError(w http.ResponseWriter, cfg handlerConfig, err error) {
	switch {
	case errors.Is(err, errOverloaded) || errors.Is(err, errShedCold):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(cfg.adm)))
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, privacy.ErrBudgetExhausted):
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, privacy.ErrUnknownTenant):
		httpError(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusServiceUnavailable, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the log, not for them.
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

// retryAfterSeconds rounds the admission gate's hint up to whole
// seconds, the Retry-After header's unit (minimum 1).
func retryAfterSeconds(adm *admission) int {
	if adm == nil {
		return 1
	}
	s := int((adm.retryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// validateHistograms rejects empty batches and wrong-length histograms
// before a request joins a coalescing group.
func validateHistograms(hists [][]float64, domain int) error {
	if len(hists) == 0 {
		return errors.New("no histograms")
	}
	for i, h := range hists {
		if len(h) != domain {
			return fmt.Errorf("histogram %d has %d entries, domain is %d", i, len(h), domain)
		}
	}
	return nil
}

// answerRequest is a decoded, resolved POST /answer request: the body's
// fields plus the queries they name — a dense workload, the warm-W memo
// entry that stands in for one, or an implicit spec — and the
// fingerprint the engine caches them under.
type answerRequest struct {
	answerBody
	wl  *workload.Workload // nil on a memo hit
	hit *memoEntry         // the memo entry of a hit
	sp  workload.Spec
	fp  string
}

// domain is the histogram length of a dense request's W.
func (r *answerRequest) domain() int {
	if r.wl != nil {
		return r.wl.Domain()
	}
	return r.hit.cols
}

// decodeRequest reads and decodes the /answer body and resolves its
// queries. On failure it returns the HTTP status to answer with: 413 for
// a body over cfg.maxBody, 400 for anything else.
func decodeRequest(w http.ResponseWriter, r *http.Request, eng *engine.Engine, cfg handlerConfig) (answerRequest, int, error) {
	buf, err := readBody(w, r, cfg.maxBody)
	// Nothing decoded below aliases the buffer once this returns: strings
	// and numbers are copied out, and the workload text is parsed or, by
	// the memo, copied.
	defer putBuffer(&bodyPool, buf)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return answerRequest{}, http.StatusRequestEntityTooLarge, fmt.Errorf("request body larger than %d bytes", mbe.Limit)
	} else if err != nil {
		return answerRequest{}, http.StatusBadRequest, fmt.Errorf("reading request body: %v", err)
	}
	body, err := decodeAnswer(buf.Bytes(), cfg.memo)
	if err != nil {
		return answerRequest{}, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	if body.Seed != 0 && !cfg.auditSeeds {
		// Anyone who knows a release's seed can regenerate its noise and
		// subtract it.
		return answerRequest{}, http.StatusBadRequest, errors.New(`"seed" is accepted only by a server started with -audit-seeds`)
	}
	req := answerRequest{answerBody: body}
	// Reject a hopeless privacy budget before any engine work: a zero,
	// negative, or non-finite ε can never release anything, so it must
	// not cost a workload parse, a fingerprint, a cache slot, or a
	// coalescing window. (JSON cannot carry NaN or Inf, but the range
	// check still owns them for completeness.)
	if err := privacy.Epsilon(req.Eps).Validate(); err != nil {
		return answerRequest{}, http.StatusBadRequest, err
	}
	// Resolve the queries: an implicit spec string or an explicit
	// matrix, never both. An unknown or malformed spec is the caller's
	// fault and dies here, before any engine work.
	switch {
	case req.Spec != "" && req.Workload.span != nil:
		return answerRequest{}, http.StatusBadRequest, errors.New("request sets both workload and spec")
	case req.Spec != "":
		if req.sp, err = workload.ParseSpec(req.Spec); err != nil {
			return answerRequest{}, http.StatusBadRequest, err
		}
		req.fp = workload.SpecFingerprint(req.sp)
	case req.Workload.span == nil:
		return answerRequest{}, http.StatusBadRequest, errors.New("workload matrix is empty")
	default:
		// The fingerprint is computed once, up front (or comes from the
		// memo entry the decoder found): the engine reuses it for cache
		// keying, the coalescer groups concurrent requests by it,
		// admission control reads warmth from it, and the response
		// echoes it so clients can correlate with /stats.
		if req.wl, req.fp, err = cfg.memo.workload(req.Workload, eng.Warm); err != nil {
			return answerRequest{}, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
		}
		req.hit = req.Workload.hit
	}
	req.Workload = matrixText{} // its bytes go back to bodyPool
	return req, 0, nil
}

// bodyPool recycles request body buffers: a warm dense request is about
// a megabyte of JSON, and without the pool every request would leave
// that much garbage behind.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers bodyPool and respPool keep, so one
// huge request or response does not pin its buffer for the life of the
// process.
const maxPooledBody = 8 << 20

// readBody reads the whole request body, at most limit bytes, into a
// pooled buffer sized from Content-Length. Release it with putBuffer.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if r.ContentLength > limit {
		return buf, &http.MaxBytesError{Limit: limit}
	}
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf, err
}

// putBuffer returns buf to pool unless it grew past maxPooledBody.
func putBuffer(pool *sync.Pool, buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		pool.Put(buf)
	}
}

// writeJSON writes the GET /stats response (POST /answer has its own
// writer, writeAnswer). It encodes into a buffer before touching the
// ResponseWriter, so an encode failure can still become a 500 instead of
// a 200 with an empty body.
//
//lrm:sink — v is serialized onto the wire
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	body = append(body, '\n')
	if _, err := w.Write(body); err != nil {
		log.Printf("lrmserve: writing response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg := fmt.Sprintf(format, args...)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		log.Printf("lrmserve: writing error response: %v", err)
	}
}
