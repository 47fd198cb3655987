package main

import (
	"context"
	"sync"
	"time"

	"lrm/internal/engine"
	"lrm/internal/privacy"
	"lrm/internal/workload"
)

// Batch coalescing: under concurrent load, many clients tend to ask for
// the same workload (same fingerprint) at the same ε within a few
// milliseconds of each other. Answering them one request at a time leaves
// the engine's multi-RHS path idle; coalescing gathers concurrent
// same-key requests behind a small time/size window and answers them as
// one engine batch — one cache lookup, one packed GEMM per dense product
// — then hands each caller its own rows.
//
// Only requests with no pinned seed and no per-request budget coalesce:
// a seeded release is a replayable per-request noise contract, and a
// budget is per-request accounting; both would change meaning inside a
// merged batch. Tenant-tagged requests coalesce only with their own
// tenant — the merged batch is charged as one composed spend against
// exactly one durable budget. Those requests, and all requests when the
// window is zero, go straight to the engine.
//
// The flush is the commit point. Waiters hold their own histograms until
// the window closes; only then is the batch assembled, and waiters whose
// context has already ended are pruned first — their rows are never part
// of the batch, so a caller that gave up during the window costs its
// tenant nothing. The engine call itself runs under the background
// context: once the batch commits, one waiter's mid-flight disconnect
// must not void the answers (or un-spend the ε) of everyone else merged
// with it.

// coalesceKey groups requests that may share one engine batch.
type coalesceKey struct {
	fp     string
	eps    float64
	tenant string
}

// coalesceResult is what a flushed group hands each waiter.
type coalesceResult struct {
	answers [][]float64
	err     error
}

// coalesceWaiter is one request's pending slot in a group. Its row
// offset into the merged batch is assigned at flush time, after pruning,
// and is only read from the result channel's payload.
type coalesceWaiter struct {
	ctx   context.Context
	hists [][]float64
	ch    chan coalesceResult
	lo    int // rows [lo, lo+len(hists)) of the flushed batch
}

// coalesceGroup is one open window of mergeable requests.
type coalesceGroup struct {
	key     coalesceKey
	wl      *workload.Workload // nil while every waiter is a memo hit
	rows    int                // histograms pledged so far, for the size trigger
	waiters []*coalesceWaiter
	timer   *time.Timer
}

// coalescer merges concurrent same-key answer requests into engine
// batches. Zero window means coalescing is disabled and callers should
// not construct one.
type coalescer struct {
	eng    *engine.Engine
	window time.Duration
	max    int // flush a group as soon as it holds this many histograms

	mu sync.Mutex
	//lrm:guardedby mu
	groups map[coalesceKey]*coalesceGroup
}

func newCoalescer(eng *engine.Engine, window time.Duration, max int) *coalescer {
	if max <= 0 {
		max = 64
	}
	return &coalescer{eng: eng, window: window, max: max, groups: make(map[coalesceKey]*coalesceGroup)}
}

// submit merges the request into the open group for its key (opening one
// and arming its window timer if none is open), waits for the group to
// flush, and returns this request's rows. The caller must have validated
// histogram lengths against the workload domain: inside a merged batch a
// malformed histogram would fail the whole group, not just its sender.
// A nil wl names the workload by fp alone (a warm-W memo hit); if no
// waiter brings W and the engine no longer holds it, every waiter gets
// engine.ErrNotResident. A nil ctx means context.Background(). If ctx
// ends before the flush, submit returns its error immediately; the
// flush later prunes the abandoned waiter without charging for it.
func (c *coalescer) submit(ctx context.Context, wl *workload.Workload, fp string, hists [][]float64, eps float64, tenant string) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	w := &coalesceWaiter{ctx: ctx, hists: hists, ch: make(chan coalesceResult, 1)}
	key := coalesceKey{fp: fp, eps: eps, tenant: tenant}

	c.mu.Lock()
	g := c.groups[key]
	if g == nil {
		g = &coalesceGroup{key: key, wl: wl}
		c.groups[key] = g
		g.timer = time.AfterFunc(c.window, func() { c.flush(g) })
	}
	if g.wl == nil {
		g.wl = wl
	}
	g.rows += len(hists)
	g.waiters = append(g.waiters, w)
	full := g.rows >= c.max
	c.mu.Unlock()

	if full {
		// The request that filled the group flushes it immediately
		// instead of waiting out the window; flush is idempotent, so a
		// concurrent timer fire is harmless.
		c.flush(g)
	}
	select {
	case res := <-w.ch:
		if res.err != nil {
			return nil, res.err
		}
		return res.answers[w.lo : w.lo+len(hists)], nil
	case <-ctx.Done():
		// The buffered channel still absorbs the flush's send, so the
		// group never blocks on an abandoned waiter.
		return nil, ctx.Err()
	}
}

// flush closes the group (removing it from the open set exactly once),
// prunes waiters whose callers have given up, assembles the batch from
// the survivors, and answers it — committing their tenant's composed
// spend — then distributes each waiter its rows.
func (c *coalescer) flush(g *coalesceGroup) {
	c.mu.Lock()
	if c.groups[g.key] != g {
		c.mu.Unlock()
		return // already flushed by the timer or a filling request
	}
	delete(c.groups, g.key)
	g.timer.Stop()
	c.mu.Unlock()

	var hists [][]float64
	live := make([]*coalesceWaiter, 0, len(g.waiters))
	for _, w := range g.waiters {
		if err := w.ctx.Err(); err != nil {
			w.ch <- coalesceResult{err: err}
			continue
		}
		w.lo = len(hists)
		hists = append(hists, w.hists...)
		live = append(live, w)
	}
	if len(live) == 0 {
		return // everyone left during the window; nothing to charge
	}
	answers, err := c.eng.Answer(engine.Request{
		Workload:    g.wl,
		Histograms:  hists,
		Eps:         privacy.Epsilon(g.key.eps),
		Tenant:      g.key.tenant,
		Fingerprint: g.key.fp,
	})
	for _, w := range live {
		w.ch <- coalesceResult{answers: answers, err: err}
	}
}
