package engine

import (
	"fmt"
	"io"
	"math"
	"path/filepath"

	"lrm/internal/core"
	"lrm/internal/faultfs"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/workload"
)

// cacheEntry is one prepared workload resident in the LRU. On a
// plan-aware engine pl records the decision that chose p's mechanism —
// plans ride the same LRU/singleflight as the Prepared they produced,
// so a plan can never outlive (or lag behind) its preparation.
type cacheEntry struct {
	fp string
	p  mechanism.Prepared
	pl *plan.Plan // nil on fixed-mechanism engines
}

// flightCall is one in-flight preparation that concurrent requests for the
// same fingerprint coalesce onto (singleflight). p and err are written
// exactly once, before done is closed; waiters read them only after
// receiving from done, so the channel close publishes them.
type flightCall struct {
	done chan struct{}
	p    mechanism.Prepared
	err  error
}

// prepared returns the Prepared instance for the workload with the given
// fingerprint, preparing (or loading from disk) at most once per
// fingerprint no matter how many goroutines ask concurrently.
func (e *Engine) prepared(fp string, w *workload.Workload) (mechanism.Prepared, error) {
	return e.preparedWith(fp, func() (mechanism.Prepared, *plan.Plan, error) {
		return e.load(fp, w)
	})
}

// preparedWith is the cache/singleflight core shared by the dense and
// spec paths: one LRU lookup, one in-flight coalesce, and at most one
// invocation of load per fingerprint however many goroutines ask.
func (e *Engine) preparedWith(fp string, load func() (mechanism.Prepared, *plan.Plan, error)) (mechanism.Prepared, error) {
	e.mu.Lock()
	if el, ok := e.byFP[fp]; ok {
		e.lru.MoveToFront(el)
		e.mu.Unlock()
		e.hits.Add(1)
		return el.Value.(*cacheEntry).p, nil
	}
	if c, ok := e.flight[fp]; ok {
		e.mu.Unlock()
		e.coalesced.Add(1)
		<-c.done
		return c.p, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	e.flight[fp] = c
	e.mu.Unlock()

	e.misses.Add(1)
	p, pl, err := load()

	e.mu.Lock()
	delete(e.flight, fp)
	if err == nil {
		e.insertLocked(fp, p, pl)
	}
	e.mu.Unlock()
	c.p, c.err = p, err
	close(c.done)
	return p, err
}

// insertLocked adds a prepared workload at the front of the LRU and evicts
// from the back past capacity. Caller holds e.mu and owns the (sole)
// flight for fp, so no entry for fp can already be resident.
//
//lrm:guardedby mu
func (e *Engine) insertLocked(fp string, p mechanism.Prepared, pl *plan.Plan) {
	e.byFP[fp] = e.lru.PushFront(&cacheEntry{fp: fp, p: p, pl: pl})
	for e.lru.Len() > e.capacity {
		el := e.lru.Back()
		evicted := el.Value.(*cacheEntry).fp
		delete(e.byFP, evicted)
		e.lru.Remove(el)
		e.evictions.Add(1)
		e.dropMemo(evicted)
	}
}

// dropMemo removes fingerprint-memo entries for an evicted workload, so
// the memo's pointer keys stop pinning matrices the cache no longer
// serves. Eviction is cold-path; the scan is bounded by memoLimit.
func (e *Engine) dropMemo(fp string) {
	e.memoMu.Lock()
	for k, v := range e.memo {
		if v == fp {
			delete(e.memo, k)
		}
	}
	e.memoMu.Unlock()
}

// load produces the Prepared (and, on a plan-aware engine, the Plan) for
// one fingerprint: disk cache first (when configured and the mechanism
// supports it), then a fresh Prepare, which is persisted back to disk for
// the next process.
func (e *Engine) load(fp string, w *workload.Workload) (mechanism.Prepared, *plan.Plan, error) {
	if e.planner != nil {
		return e.loadPlanned(fp, w)
	}
	path := e.diskPath(fp)
	if path != "" {
		if p, err := loadPrepared(e.fs, path, w, e.gamma); err == nil {
			e.diskHits.Add(1)
			return p, nil, nil
		}
		// A missing, corrupt, or mismatched cache file must never take
		// down serving: fall through to a fresh preparation.
	}
	e.prepares.Add(1)
	if e.hook != nil {
		e.hook(fp)
	}
	p, err := e.mech.Prepare(w)
	if err != nil {
		return nil, nil, err
	}
	if path != "" {
		if d, ok := decompositionOf(p); ok {
			if err := e.writeDecomposition(path, d); err == nil {
				e.diskWrites.Add(1)
			}
		}
	}
	return p, nil, nil
}

// diskPath returns the cache file for a fingerprint, or "" when disk
// caching is disabled (no directory configured, or a non-LRM mechanism).
// The name is <workload-fingerprint>-<options-digest>.lrmd — both parts
// lowercase hex, so no escaping — keyed on the options too because
// differently tuned LRM engines sharing a directory must not serve each
// other's factorizations.
func (e *Engine) diskPath(fp string) string {
	if e.dir == "" {
		return ""
	}
	return filepath.Join(e.dir, fp+"-"+e.optTag+".lrmd")
}

// decomposer is implemented by Prepared instances whose state is a
// serializable workload decomposition (the LRM); only those can round-trip
// through the disk cache.
type decomposer interface {
	Decomposition() *core.Decomposition
}

func decompositionOf(p mechanism.Prepared) (*core.Decomposition, bool) {
	d, ok := p.(decomposer)
	if !ok {
		return nil, false
	}
	return d.Decomposition(), true
}

// loadPrepared restores a persisted decomposition and checks it actually
// factors this workload (a renamed, foreign, or tampered file fails
// closed here; the decode itself already rejects non-finite or corrupt
// payloads). This runs only on disk misses, so the extra m×n product is
// paid once per workload per process, not per answer.
func loadPrepared(fs faultfs.FS, path string, w *workload.Workload, gamma float64) (mechanism.Prepared, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := core.ReadDecomposition(f)
	if err != nil {
		return nil, err
	}
	if d.B.Rows() != w.Queries() || d.L.Cols() != w.Domain() {
		return nil, fmt.Errorf("engine: cached decomposition is %d×%d for a %d×%d workload",
			d.B.Rows(), d.L.Cols(), w.Queries(), w.Domain())
	}
	// Integrity: the defining invariant is W ≈ B·L. Metadata can be
	// forged, but not the actual residual — recompute it and require
	// consistency with the stored value (small slack for the optimizer's
	// normalized-space arithmetic) plus a sanity cap, so a well-formed
	// file holding someone else's (or a zeroed) factorization cannot
	// silently poison every answer for this workload. The cap admits the
	// engine's own configured relaxation γ, so a deliberately loose-γ
	// deployment still gets disk hits for its own legitimate files.
	normW := math.Sqrt(mat.SquaredSum(w.W))
	maxResidual := 0.5 * normW
	if gamma > maxResidual {
		maxResidual = gamma
	}
	frob := math.Sqrt(mat.SquaredSum(mat.Sub(w.W, mat.Mul(d.B, d.L))))
	if frob > d.Residual+1e-6*normW || d.Residual > maxResidual*(1+1e-9) {
		return nil, fmt.Errorf("engine: cached decomposition does not factor this workload (‖W−BL‖=%.3g, stored %.3g, ‖W‖=%.3g)",
			frob, d.Residual, normW)
	}
	return mechanism.PreparedFromDecomposition(d)
}

// writeDecomposition persists atomically and durably: temp file, fsync,
// rename, directory fsync. The temp fsync *before* the rename is load-
// bearing — rename is atomic in the namespace but says nothing about the
// data, so renaming a dirty temp lets a crash leave the final name
// pointing at a truncated (even zero-length) file. A concurrent reader —
// another engine sharing the directory — never observes a half-written
// file, and a crash at any point leaves either no file or a complete
// one.
//
//lrm:sink — the cache file is on-disk state outside the process
func (e *Engine) writeDecomposition(path string, d *core.Decomposition) error {
	return e.writeEncoded(path, ".lrmd-*", d)
}

// encoder is any artifact with a self-contained binary/JSON writer:
// dense decompositions, factored (Kronecker) decompositions, and plan
// documents all persist through the same atomic write.
type encoder interface {
	Encode(w io.Writer) error
}

// writeEncoded is the shared atomic+durable writer behind every cache
// artifact: temp file, fsync, rename, directory fsync (see
// writeDecomposition's doc for why the pre-rename fsync is load-bearing).
func (e *Engine) writeEncoded(path, tmpPattern string, enc encoder) error {
	dir := filepath.Dir(path)
	tmp, err := e.fs.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	defer e.fs.Remove(tmp.Name())
	if err := enc.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := e.fs.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return e.fs.SyncDir(dir)
}
