// Package engine is the serving layer of the repository: a long-lived,
// goroutine-safe answering engine that amortizes the paper's expensive
// workload decomposition ("optimize once, answer forever") across many
// private releases and many concurrent clients.
//
// The engine keys workloads by a content fingerprint (core.Fingerprint
// over W's dimensions and data) and keeps an LRU cache of
// mechanism.Prepared instances. Cache misses are deduplicated with
// singleflight semantics: N concurrent first requests for one workload
// run exactly one Prepare, and the other N−1 block on the same result.
// When a cache directory is configured, every preparation is persisted
// and restored on the next miss — including by a different process — so
// the optimization cost is paid once per workload per deployment, not
// per process. The directory holds three kinds of artifact: dense LRM
// decompositions (.lrmd), factored Kronecker decompositions (.lrmk), and
// on a plan-aware engine the plan documents (.plan.json); artifactPath
// documents the file-name grammar. Dense and spec workloads, fixed and
// planned engines, all restore, prepare and persist through one load
// pipeline (cache.go).
//
// Every request is answered the same way, whatever its size or seed: its
// histograms become the columns of one n×B matrix and a single
// mechanism.AnswerMany call releases them all from one noise stream.
// Mechanisms with a multi-RHS path (mechanism.BatchAnswerer) run each
// dense product as one packed GEMM whose tiles draw from the shared
// pool; the rest answer the columns in order through the loop fallback.
// Each request may carry its own total-ε cap, checked against the
// composed spend at entry — before any preparation and before the
// tenant is charged.
//
// With Options.Planner set the engine becomes plan-aware: each workload
// is analyzed and planned (internal/plan) on first sight, the winning
// mechanism serves it, and the plan is cached and persisted alongside
// the preparation — see plan.go.
package engine

import (
	"container/list"
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lrm/internal/core"
	"lrm/internal/faultfs"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// ErrClosed is returned by Answer after Close: a closed engine has
// released its durable accountant state and must not grant another
// spend against it.
var ErrClosed = errors.New("engine: closed")

// ErrNotResident is returned by Answer for a request that names its
// workload by Fingerprint alone when no preparation under that
// fingerprint is resident in memory. Nothing was spent; resend the
// request with its Workload.
var ErrNotResident = errors.New("engine: workload not resident")

// Options configures New. The zero value serves the Low-Rank Mechanism
// with an in-memory cache sized for a moderate workload mix.
type Options struct {
	// Mechanism prepares workloads; nil means mechanism.LRM{}. Only
	// mechanisms whose Prepared exposes a core.Decomposition (the LRM)
	// participate in the disk cache; others are cached in memory only.
	// Mutually exclusive with Planner.
	Mechanism mechanism.Mechanism
	// Planner, when non-nil, switches the engine from "one process, one
	// mechanism" to "one plan per workload": each new workload is
	// analyzed and planned (internal/plan) and served by the winning
	// mechanism with its tuned parameters. Plans are cached alongside
	// the Prepared instances in the same LRU/singleflight machinery —
	// in memory the entry keys by workload fingerprint (the plan is a
	// deterministic function of the fingerprint and these fixed planner
	// options), while disk artifacts key by fingerprint + planner-options
	// digest + plan digest, so a changed decision orphans stale files
	// instead of serving them. The planner's Fingerprint field is
	// overwritten per workload. Mutually exclusive with Mechanism.
	Planner *plan.Options
	// CacheSize bounds the number of prepared workloads held in memory
	// (default 64). Least-recently-answered workloads are evicted first.
	CacheSize int
	// CacheDir, when non-empty, persists preparations and restores them
	// on later misses: LRM decompositions as .lrmd (dense workloads) or
	// .lrmk (Kronecker specs) files, plus a .plan.json document per
	// workload on a plan-aware engine. Every name starts
	// <fingerprint>-<options-digest>. The directory is created if needed
	// and may be shared across processes (and across differently tuned
	// engines — the options digest keeps their files apart). Ignored for
	// fixed mechanisms other than the LRM, which have no serializable
	// decomposition.
	CacheDir string
	// PrepareHook, when set, is called with the workload fingerprint each
	// time an actual Prepare executes (not on cache or disk hits). It
	// exists so tests can count preparations; leave nil in production.
	PrepareHook func(fingerprint string)
	// Accountant, when non-nil, charges each tenant-tagged request's
	// total ε (Eps × histograms, the sequential composition) against the
	// tenant's durable budget at the request's commit point — after the
	// preparation succeeds and the context is still live, before any
	// noise is drawn. The engine takes ownership: Close closes it.
	Accountant *privacy.Accountant
	// FS is the filesystem the disk cache reads and writes through; nil
	// means the real disk (faultfs.Disk). Tests inject faults here to
	// prove a torn cache file degrades to a fresh Prepare instead of an
	// outage.
	FS faultfs.FS
}

// Request is one answering call: a workload, one or more histograms to
// answer over it, and the privacy parameters of the release.
//
// The workload and histograms must not be mutated after the call starts:
// the engine caches state derived from W under a content fingerprint, so
// in-place mutation would silently serve answers for the old workload.
type Request struct {
	// Context, when non-nil, carries the request's deadline and
	// cancellation. It is consulted at entry and again at the commit
	// point — after the (possibly long) preparation, before any ε is
	// spent or noise drawn — so a caller that gave up never pays budget
	// for an answer it will not receive. Nil means context.Background().
	Context context.Context
	// Workload is the query batch W. Requests with bit-identical W share
	// one cached preparation. At most one of Workload and Spec may be
	// set. With neither, the request names its workload by Fingerprint
	// alone and is served only by a resident preparation: W is read only
	// to prepare it, so a request for a warm workload need not carry it.
	// When none is resident, Answer fails with ErrNotResident.
	Workload *workload.Workload
	// Spec is the implicit form of the query batch: a structure-aware
	// workload.Spec answered without W ever being materialized. Requests
	// with equal Spec.Digest() share one cached preparation, keyed by
	// workload.SpecFingerprint. At most one of Workload and Spec may be
	// set.
	Spec workload.Spec
	// Histograms are the databases to answer; each must have Domain()
	// entries. Every histogram is released independently at Eps.
	//
	//lrm:source — unit-count histograms are the raw, unreleased data
	Histograms [][]float64
	// Eps is the per-histogram release budget.
	Eps privacy.Epsilon
	// Budget, when non-zero, caps the total ε this request may consume
	// (sequential composition across its histograms). The request fails
	// with privacy.ErrBudgetExhausted if len(Histograms)·Eps exceeds it.
	// Zero means exactly len(Histograms)·Eps, i.e. no extra cap.
	Budget privacy.Epsilon
	// Seed, when non-zero, makes the release reproducible: the whole
	// request draws its noise from one stream seeded with Seed, histogram
	// by histogram in request order — exactly the draws of looping the
	// prepared mechanism's Answer over the histograms with rng.New(Seed)
	// (mechanism.AnswerManyLoop), and each released histogram equals that
	// loop's to within floating-point rounding. The same Seed gives the
	// same bits on every call, and a one-histogram request equals
	// Answer(x, Eps, rng.New(Seed)) bit for bit. This is a debug/audit mode —
	// anyone who knows the seed can regenerate the noise and subtract it,
	// so a seeded release carries no privacy against a party that learns
	// the seed. Zero (the default) seeds the request's stream from the
	// engine's unpredictable sequence (crypto/rand at startup, never
	// repeating), which is the right choice for real private releases.
	Seed int64
	// Tenant, when non-empty on an engine configured with an Accountant,
	// names the durable per-tenant budget this request's total ε is
	// charged against. The charge happens once, at the commit point, and
	// a refused charge fails the request with privacy.ErrBudgetExhausted
	// before any noise is drawn. Empty skips tenant accounting.
	Tenant string
	// Fingerprint, when non-empty, must be core.Fingerprint(Workload.W);
	// the engine trusts it and skips both hashing and the pointer memo.
	// Callers that already know it should set it. The HTTP server does:
	// it hashes each W it parses once, and a repeat request its warm-W
	// memo recognizes carries the memoized fingerprint and no Workload.
	// With Workload and Spec both nil it alone names the workload.
	Fingerprint string
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Requests and Answers count Answer calls and histograms answered.
	Requests, Answers uint64
	// Hits and Misses count in-memory cache lookups; Coalesced counts
	// requests that piggybacked on another request's in-flight Prepare.
	Hits, Misses, Coalesced uint64
	// Prepares counts actual decomposition runs; Evictions LRU evictions.
	Prepares, Evictions uint64
	// Planned counts planner runs (plan-aware engines only): workloads
	// whose mechanism was chosen by an actual plan.New, as opposed to a
	// cache hit or a plan document restored from disk.
	Planned uint64
	// DiskHits and DiskWrites count decompositions restored from and
	// persisted to the cache directory.
	DiskHits, DiskWrites uint64
	// Batched counts requests answered by a mechanism's native multi-RHS
	// path (mechanism.BatchAnswerer), whatever their size or seed; the
	// rest went through the per-histogram loop fallback. Sharded is
	// always 0: row-sharded serving was removed, and the field stays only
	// so existing readers of Stats keep compiling.
	Batched, Sharded uint64
	// Implicit counts requests served through the spec path (Request.Spec
	// set): workloads answered with W never materialized.
	Implicit uint64
	// Cached is the number of prepared workloads currently resident.
	Cached int
}

// Engine is a goroutine-safe answering service. Create with New, release
// with Close.
type Engine struct {
	mech     mechanism.Mechanism
	planner  *plan.Options // non-nil switches to per-workload planning
	dir      string
	optTag   string  // digest of the LRM options, part of cache filenames
	gamma    float64 // the LRM's configured relaxation, for disk-load validation
	capacity int
	hook     func(string)
	fs       faultfs.FS

	// Durable per-tenant ε accounting (Options.Accountant); owned by the
	// engine — Close closes it.
	accountant *privacy.Accountant
	closed     atomic.Bool
	closeOnce  sync.Once
	closeErr   error

	// Prepared-workload cache and singleflight table.
	mu sync.Mutex
	// lru holds *cacheEntry values, most recent at front.
	//
	//lrm:guardedby mu
	lru *list.List
	//lrm:guardedby mu
	byFP map[string]*list.Element
	//lrm:guardedby mu
	flight map[string]*flightCall

	// Pointer-identity fingerprint memo: hashing a large W costs more
	// than answering it, so repeat calls with the same *mat.Dense skip
	// the hash. Bounded by reset; entries are only a pointer and a hash.
	memoMu sync.RWMutex
	//lrm:guardedby memoMu
	memo map[*mat.Dense]string

	// Pooled noise sources: each request reseeds one instead of
	// allocating a fresh generator.
	sources sync.Pool
	// Pooled *[]float64 scratch for batches: it holds the n×B histogram
	// matrix during AnswerMany and then the transpose of the result.
	// Allocating both per request added about 0.26 MB of garbage to each
	// 16-histogram kron:prefix(32)xprefix(32) request, and the extra GC
	// cycles raised its end-to-end p50 by about a quarter (lrmserve on a
	// 2-vCPU Xeon).
	scratch sync.Pool

	// Unseeded requests draw their stream's seed from a secret random
	// base mixed with a unique counter, so their noise is unpredictable
	// and never repeats across requests.
	seedBase uint64
	seedCtr  atomic.Uint64

	requests, answers    atomic.Uint64
	hits, misses         atomic.Uint64
	coalesced, prepares  atomic.Uint64
	evictions, planned   atomic.Uint64
	diskHits, diskWrites atomic.Uint64
	batched, implicit    atomic.Uint64
}

// memoLimit bounds the fingerprint memo; past it the memo is reset (the
// cost is only re-hashing on the next call per live workload). The map's
// pointer keys strongly retain their matrices, so the bound is kept small
// — callers that churn through fresh workload allocations should pass
// Request.Fingerprint and bypass the memo entirely.
const memoLimit = 256

// New starts an engine. Close flushes and closes the accountant's
// write-ahead logs (when one is configured) and fails all subsequent
// Answer calls with ErrClosed.
func New(opts Options) (*Engine, error) {
	e := &Engine{
		mech:       opts.Mechanism,
		dir:        opts.CacheDir,
		capacity:   opts.CacheSize,
		hook:       opts.PrepareHook,
		fs:         opts.FS,
		accountant: opts.Accountant,
		lru:        list.New(),
		byFP:       make(map[string]*list.Element),
		flight:     make(map[string]*flightCall),
		memo:       make(map[*mat.Dense]string),
	}
	if e.fs == nil {
		e.fs = faultfs.Disk
	}
	if opts.Planner != nil && opts.Mechanism != nil {
		return nil, fmt.Errorf("engine: Options.Mechanism and Options.Planner are mutually exclusive")
	}
	e.planner = opts.Planner
	if e.mech == nil && e.planner == nil {
		e.mech = mechanism.LRM{}
	}
	if e.capacity <= 0 {
		e.capacity = 64
	}
	// The disk cache stores LRM decompositions; for any other fixed
	// mechanism a cached .lrmd or .lrmk would be answered by the wrong
	// mechanism entirely, so the directory is ignored unless the engine
	// serves the LRM or plans per workload (planned engines additionally
	// persist the plan documents that say which mechanism each file
	// belongs to).
	// The filename carries a digest of the LRM options (or of the
	// planner options) so engines tuned differently sharing a directory
	// don't serve each other's artifacts.
	switch {
	case e.planner != nil && e.dir != "":
		if err := e.fs.MkdirAll(e.dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: cache dir: %w", err)
		}
		po := *e.planner
		po.Fingerprint = "" // per-workload, not part of the engine's identity
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", po)))
		e.optTag = hex.EncodeToString(sum[:4])
	case e.planner != nil:
		// memory-only planned engine
	default:
		if l, ok := e.mech.(mechanism.LRM); ok && e.dir != "" {
			if err := e.fs.MkdirAll(e.dir, 0o755); err != nil {
				return nil, fmt.Errorf("engine: cache dir: %w", err)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", l.Options)))
			e.optTag = hex.EncodeToString(sum[:4])
			e.gamma = l.Options.Gamma
		} else {
			e.dir = ""
		}
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("engine: seeding: %w", err)
	}
	e.seedBase = binary.LittleEndian.Uint64(seed[:])
	// The pool only constructs placeholder sources: every Get is
	// immediately followed by Reseed with either the caller's audit seed
	// or nextSeed()'s crypto-based stream, so the constant below never
	// produces noise.
	//lint:ignore noiserand pooled sources are Reseed-ed before every use
	e.sources.New = func() any { return rng.New(0) }
	e.scratch.New = func() any { return new([]float64) }
	return e, nil
}

// Close shuts the engine down: subsequent Answer calls fail with
// ErrClosed, and the accountant's write-ahead logs (when configured) are
// flushed and closed so no further durable spends can be granted. Close
// is idempotent — every call returns the first call's error. In-flight
// Answer calls that already passed their commit point complete; their
// spends were durable before Close returned.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		if e.accountant != nil {
			e.closeErr = e.accountant.Close()
		}
	})
	return e.closeErr
}

// Warm reports whether a fingerprint's preparation is resident in the
// in-memory cache, without freshening the LRU or touching the hit
// counters — a pure peek for admission control: under pressure the
// server sheds cold requests (which would burn a Prepare) while cheap
// warm answers keep flowing.
func (e *Engine) Warm(fp string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.byFP[fp]
	return ok
}

// ctxErr returns the context's error, treating nil as Background.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// spendTenant charges the request's total ε — Eps per histogram,
// composed sequentially — against its tenant's durable budget. This is
// the request's single accounting event; callers invoke it only at the
// commit point.
func (e *Engine) spendTenant(req Request) error {
	if e.accountant == nil || req.Tenant == "" {
		return nil
	}
	eps := privacy.Epsilon(float64(req.Eps) * float64(len(req.Histograms)))
	return e.accountant.Spend(req.Tenant, eps)
}

// Accountant returns the engine's durable accountant, or nil. The
// server uses it to surface per-tenant remaining ε in GET /stats.
func (e *Engine) Accountant() *privacy.Accountant { return e.accountant }

// Answer releases private answers for every histogram in the request and
// returns them in request order. It is safe to call from any number of
// goroutines; identical workloads share one cached preparation.
//
//lrm:sink return — everything Answer returns leaves the privacy boundary
func (e *Engine) Answer(req Request) ([][]float64, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctxErr(req.Context); err != nil {
		return nil, err
	}
	if req.Spec != nil {
		if req.Workload != nil {
			return nil, errors.New("engine: request sets both Workload and Spec")
		}
		return e.answerSpec(req)
	}
	if req.Workload == nil && req.Fingerprint != "" {
		return e.answerResident(req)
	}
	if req.Workload == nil || req.Workload.W == nil {
		return nil, errors.New("engine: nil workload")
	}
	if err := validateHistograms(req, req.Workload.Domain()); err != nil {
		return nil, err
	}
	e.requests.Add(1)

	fp := req.Fingerprint
	if fp == "" {
		fp = e.fingerprint(req.Workload.W)
	}
	p, err := e.prepared(fp, func() workload.Spec { return workload.AsSpec(req.Workload) })
	if err != nil {
		return nil, err
	}
	return e.release(p, req)
}

// answerResident serves a request that names its workload by
// Fingerprint alone, from the resident preparation under it. With no W
// there is nothing to prepare from, so a miss fails with ErrNotResident
// before anything is counted or spent.
//
//lrm:sink return — everything answerResident returns leaves the privacy boundary
func (e *Engine) answerResident(req Request) ([][]float64, error) {
	e.mu.Lock()
	el, ok := e.byFP[req.Fingerprint]
	if ok {
		e.lru.MoveToFront(el)
	}
	e.mu.Unlock()
	if !ok {
		return nil, ErrNotResident
	}
	// Entries are never written after insertion, so ce serves even if it
	// is evicted from here on.
	ce := el.Value.(*cacheEntry)
	if err := validateHistograms(req, ce.domain); err != nil {
		return nil, err
	}
	e.requests.Add(1)
	e.hits.Add(1)
	return e.release(ce.p, req)
}

// validateHistograms checks the request's release parameters and that
// every histogram matches the workload's domain. It also applies the
// optional per-request cap: the composed spend, Eps once per histogram,
// is charged against a fresh privacy.Budget(Budget), so the cap admits
// exactly what that budget's relative slack admits. Running this at
// entry means a request its own cap refuses fails before it costs a
// preparation or any tenant ε.
func validateHistograms(req Request, n int) error {
	if len(req.Histograms) == 0 {
		return errors.New("engine: no histograms")
	}
	if err := req.Eps.Validate(); err != nil {
		return err
	}
	for i, x := range req.Histograms {
		if len(x) != n {
			return fmt.Errorf("engine: histogram %d has %d entries, domain is %d", i, len(x), n)
		}
	}
	if req.Budget == 0 {
		return nil
	}
	budget, err := privacy.NewBudget(req.Budget)
	if err != nil {
		return err
	}
	for range req.Histograms {
		if err := budget.Spend(req.Eps); err != nil {
			return err
		}
	}
	return nil
}

// release is the post-preparation tail shared by the dense and spec
// paths, and the engine's only answer path: commit point, tenant spend,
// then one mechanism.AnswerMany call over the request's histograms
// stacked as the columns of an n×B matrix, drawing from one noise stream
// seeded Seed (or an unpredictable seed when Seed is zero). AnswerMany
// takes the mechanism's native multi-RHS path when it has one and loops
// Answer over the columns otherwise; either way the release draws the
// noise of looping Answer with the same source and equals that loop to
// within floating-point rounding. The per-request budget was
// already applied by validateHistograms.
//
//lrm:sink return — everything release returns leaves the privacy boundary
func (e *Engine) release(p mechanism.Prepared, req Request) ([][]float64, error) {
	// Commit point: the preparation is done and noise is about to be
	// drawn. A request whose caller has already given up is abandoned
	// here, before it costs any ε; past this point the tenant's spend is
	// durable even if the caller later disconnects.
	if err := ctxErr(req.Context); err != nil {
		return nil, err
	}
	if err := e.spendTenant(req); err != nil {
		return nil, err
	}

	hists := req.Histograms
	n, b := len(hists[0]), len(hists)
	var x *mat.Dense
	var scratch *[]float64
	if b == 1 {
		x = mat.NewFromData(n, 1, hists[0]) // one column is the histogram itself
	} else {
		scratch = e.scratch.Get().(*[]float64)
		defer e.scratch.Put(scratch)
		x = mat.NewFromData(n, b, grow(scratch, n*b))
		for j, h := range hists {
			x.SetCol(j, h)
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = e.nextSeed()
	}
	src := e.sources.Get().(*rng.Source)
	src.Reseed(seed)
	//lint:ignore epshygiene eps was validated at request entry (validateHistograms)
	y, err := mechanism.AnswerMany(p, x, req.Eps, src)
	e.sources.Put(src)
	if err != nil {
		return nil, err
	}
	if _, ok := p.(mechanism.BatchAnswerer); ok {
		e.batched.Add(1)
	}
	e.answers.Add(uint64(b))
	if b == 1 {
		return [][]float64{y.RawData()}, nil
	}
	// y is m×B row-major and callers want one slice per histogram:
	// transpose y in place through the scratch buffer, so each answer is a
	// contiguous row of storage AnswerMany already allocated.
	m, yd := y.Rows(), y.RawData()
	t := grow(scratch, m*b)
	copy(t, yd)
	out := make([][]float64, b)
	for j := range out {
		a := yd[j*m : (j+1)*m : (j+1)*m]
		for i := range a {
			a[i] = t[i*b+j]
		}
		out[j] = a
	}
	return out, nil
}

// grow returns (*buf)[:n], replacing the pooled buffer when it is too
// small.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// nextSeed returns an unpredictable, never-repeating seed: splitmix64
// over a crypto/rand base and a unique counter. The mixer guarantees the
// counter's structure doesn't survive into the output; unpredictability
// rests on the secret base.
func (e *Engine) nextSeed() int64 {
	z := e.seedBase + e.seedCtr.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// fingerprint returns core.Fingerprint(w), memoized by pointer identity
// so the steady-state answer path never re-hashes a workload it has
// already seen. Callers guarantee workloads are not mutated (see Request).
func (e *Engine) fingerprint(w *mat.Dense) string {
	e.memoMu.RLock()
	fp, ok := e.memo[w]
	e.memoMu.RUnlock()
	if ok {
		return fp
	}
	fp = core.Fingerprint(w)
	e.memoMu.Lock()
	if len(e.memo) >= memoLimit {
		e.memo = make(map[*mat.Dense]string)
	}
	e.memo[w] = fp
	e.memoMu.Unlock()
	return fp
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	cached := e.lru.Len()
	e.mu.Unlock()
	return Stats{
		Requests:   e.requests.Load(),
		Answers:    e.answers.Load(),
		Hits:       e.hits.Load(),
		Misses:     e.misses.Load(),
		Coalesced:  e.coalesced.Load(),
		Prepares:   e.prepares.Load(),
		Planned:    e.planned.Load(),
		Evictions:  e.evictions.Load(),
		DiskHits:   e.diskHits.Load(),
		DiskWrites: e.diskWrites.Load(),
		Batched:    e.batched.Load(),
		Implicit:   e.implicit.Load(),
		Cached:     cached,
	}
}
