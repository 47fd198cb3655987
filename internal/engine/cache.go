package engine

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"

	"lrm/internal/core"
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
	fp     string
	p      mechanism.Prepared
	pl     *plan.Plan // nil on fixed-mechanism engines
	domain int        // histogram length p answers, for answerResident
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
// fingerprint: one LRU lookup, one in-flight coalesce, and at most one
// load per fingerprint however many goroutines ask concurrently. spec is
// called only on a miss, so a dense request builds its workload.AsSpec
// adapter only when it actually has to be restored or prepared.
func (e *Engine) prepared(fp string, spec func() workload.Spec) (mechanism.Prepared, error) {
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
	s := spec()
	p, pl, err := e.load(fp, s)

	e.mu.Lock()
	delete(e.flight, fp)
	if err == nil {
		e.insertLocked(&cacheEntry{fp: fp, p: p, pl: pl, domain: s.Domain()})
	}
	e.mu.Unlock()
	c.p, c.err = p, err
	close(c.done)
	return p, err
}

// insertLocked adds a prepared workload at the front of the LRU and evicts
// from the back past capacity. Caller holds e.mu and owns the (sole)
// flight for ce.fp, so no entry for it can already be resident.
//
//lrm:guardedby mu
func (e *Engine) insertLocked(ce *cacheEntry) {
	e.byFP[ce.fp] = e.lru.PushFront(ce)
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
// one fingerprint, whatever the workload's kind: restore from the cache
// directory when one is configured, otherwise prepare — plan.NewSpec on a
// plan-aware engine (whose scoring already prepares the winner), the
// fixed mechanism's PrepareSpec otherwise — and persist the result for
// the next process. Both preparers unwrap a *workload.DenseSpec to the
// dense plan.New / Mechanism.Prepare.
func (e *Engine) load(fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	if e.dir != "" {
		if p, pl, err := e.restore(fp, s); err == nil {
			e.diskHits.Add(1)
			return p, pl, nil
		}
		// A missing, corrupt, or mismatched artifact must never take
		// down serving: fall through to a fresh preparation.
	}
	e.prepares.Add(1)
	if e.hook != nil {
		e.hook(fp)
	}
	var (
		p   mechanism.Prepared
		pl  *plan.Plan
		err error
	)
	if e.planner != nil {
		opts := *e.planner
		opts.Fingerprint = fp
		if pl, err = plan.NewSpec(s, opts); err != nil {
			return nil, nil, err
		}
		e.planned.Add(1)
		p = pl.Prepared()
	} else if p, err = mechanism.PrepareSpec(e.mech, s, nil); err != nil {
		return nil, nil, err
	}
	if e.dir != "" {
		e.persist(fp, s, p, pl)
	}
	return p, pl, nil
}

// restore rebuilds a served workload from the cache directory with no
// Prepare. A fixed engine reads its decomposition file. A plan-aware
// engine first reads the (self-checking) plan document, then restores
// the decomposition for an lrm winner (validated against the workload
// like any disk hit) or re-runs only the trivial PrepareSpec of a
// baseline winner.
func (e *Engine) restore(fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	if e.planner == nil {
		p, err := e.readArtifact(e.artifactPath(fp, "", s), s, e.gamma)
		return p, nil, err
	}
	f, err := e.fs.Open(e.planPath(fp))
	if err != nil {
		return nil, nil, err
	}
	pl, err := plan.Decode(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	if pl.Fingerprint != fp {
		return nil, nil, fmt.Errorf("engine: plan document is for workload %s, not %s", pl.Fingerprint, fp)
	}
	// The fingerprint already binds the workload, but a spec plan also
	// records the spec's human-auditable descriptor (a dense plan records
	// none); a mismatch means a tampered document.
	desc := s.Describe()
	if _, dense := s.(*workload.DenseSpec); dense {
		desc = ""
	}
	if pl.SpecDesc != desc {
		return nil, nil, fmt.Errorf("engine: plan document describes %q, request is %q", pl.SpecDesc, desc)
	}
	if pl.Mechanism == "lrm" {
		p, err := e.readArtifact(e.artifactPath(fp, pl.Digest(), s), s, pl.LRMOptions.Gamma)
		return p, pl, err
	}
	m, err := mechanism.ByName(pl.Mechanism, e.planner.Config)
	if err != nil {
		return nil, nil, err
	}
	p, err := mechanism.PrepareSpec(m, s, pl.Stats)
	return p, pl, err
}

// persist writes a fresh preparation to the cache directory: the plan
// document first on a plan-aware engine, then the decomposition when the
// Prepared has one. Every write is best-effort — a failure only costs the
// next process a Prepare — and DiskWrites counts persisted workloads:
// a written plan document, or on a fixed engine a written decomposition.
// A plan whose decomposition write fails still restores its decision,
// misses on the decomposition, and re-plans.
func (e *Engine) persist(fp string, s workload.Spec, p mechanism.Prepared, pl *plan.Plan) {
	digest := ""
	if pl != nil {
		if e.writeEncoded(e.planPath(fp), pl) != nil {
			return
		}
		digest = pl.Digest()
	}
	art, ok := artifactOf(p)
	wrote := ok && e.writeEncoded(e.artifactPath(fp, digest, s), art) == nil
	if pl != nil || wrote {
		e.diskWrites.Add(1)
	}
}

// artifactPath names the decomposition file for a workload. The cache
// directory's grammar, which a directory written by any earlier build
// must keep restoring under, is
//
//	<fp>-<opts>.lrmd           fixed LRM engine, dense workload
//	<fp>-<opts>.lrmk           fixed LRM engine, Kronecker spec
//	<fp>-<opts>.plan.json      plan-aware engine, the decision
//	<fp>-<opts>-<plan>.lrmd    plan-aware engine, dense lrm winner
//	<fp>-<opts>-<plan>.lrmk    plan-aware engine, Kronecker lrm winner
//
// where <fp> is the workload fingerprint (spec fingerprints carry a
// "spec-" namespace, so the two key spaces never collide), <opts> the
// 8-hex digest of the LRM or planner options, and <plan> the plan's
// 16-hex content digest — all lowercase hex, so no escaping. Differently
// tuned engines sharing a directory therefore never serve each other's
// artifacts, and a replanned decision orphans its predecessor's
// decomposition instead of being served by it (the plan document is
// additionally self-checking: its stored digest must match the digest
// recomputed from its fields). In memory an entry keys by fingerprint
// alone: an engine's options are fixed for its lifetime and planning is
// deterministic. planDigest is "" on a fixed-mechanism engine.
func (e *Engine) artifactPath(fp, planDigest string, s workload.Spec) string {
	name := fp + "-" + e.optTag
	if planDigest != "" {
		name += "-" + planDigest
	}
	if _, dense := s.(*workload.DenseSpec); dense {
		return filepath.Join(e.dir, name+".lrmd")
	}
	return filepath.Join(e.dir, name+".lrmk")
}

// planPath names a plan-aware engine's plan document for a fingerprint
// (see artifactPath for the directory grammar).
func (e *Engine) planPath(fp string) string {
	return filepath.Join(e.dir, fp+"-"+e.optTag+".plan.json")
}

// artifactOf returns the serializable decomposition behind a Prepared —
// the dense LRM's core.Decomposition or the spec-path LRM's factored
// core.KronDecomposition — or false for mechanisms with none, which are
// cached in memory only (a planned baseline winner restores from its
// plan document alone).
func artifactOf(p mechanism.Prepared) (encoder, bool) {
	switch p := p.(type) {
	case interface{ Decomposition() *core.Decomposition }:
		return p.Decomposition(), true
	case interface {
		KronDecomposition() *core.KronDecomposition
	}:
		return p.KronDecomposition(), true
	}
	return nil, false
}

// readArtifact restores a persisted decomposition — .lrmd for a dense
// workload, .lrmk for a Kronecker spec — and checks that it actually
// factors s (a renamed, foreign, or tampered file fails closed here; the
// decode itself already rejects non-finite or corrupt payloads). This
// runs only on disk misses, so the check's products are paid once per
// workload per process, not per answer. A Kronecker factor is small —
// the same mechanism.LRMFactorCellCap the LRM decomposes under — so its
// check costs factor-sized GEMMs, never an m×n product.
func (e *Engine) readArtifact(path string, s workload.Spec, gamma float64) (mechanism.Prepared, error) {
	d, dense := s.(*workload.DenseSpec)
	k, kron := s.(*workload.KronSpec)
	if !dense && !kron {
		return nil, fmt.Errorf("engine: %s has no decomposition to restore", s.Describe())
	}
	f, err := e.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if dense {
		dec, err := core.ReadDecomposition(f)
		if err != nil {
			return nil, err
		}
		if err := checkFactors(d.Dense().W, dec, gamma); err != nil {
			return nil, err
		}
		return mechanism.PreparedFromDecomposition(dec)
	}
	kd, err := core.ReadKronDecomposition(f)
	if err != nil {
		return nil, err
	}
	specs := k.Factors()
	if len(kd.Factors) != len(specs) {
		return nil, fmt.Errorf("engine: cached decomposition has %d factors, spec has %d", len(kd.Factors), len(specs))
	}
	for i, fd := range kd.Factors {
		fw, err := workload.MaterializeSpec(specs[i], mechanism.LRMFactorCellCap)
		if err != nil {
			return nil, fmt.Errorf("engine: kron factor %d: %w", i+1, err)
		}
		if err := checkFactors(fw.W, fd, gamma); err != nil {
			return nil, fmt.Errorf("engine: kron factor %d (%s): %w", i+1, specs[i].Describe(), err)
		}
	}
	return mechanism.PreparedFromKronDecomposition(kd)
}

// checkFactors is the one integrity rule for every persisted
// decomposition: d must have W's shape and actually factor it. The
// defining invariant is W ≈ B·L. Metadata can be forged, but not the
// actual residual — recompute it and require consistency with the stored
// value (small slack for the optimizer's normalized-space arithmetic)
// plus a sanity cap, so a well-formed file holding someone else's (or a
// zeroed) factorization cannot silently poison every answer for this
// workload. The cap admits the engine's own configured relaxation γ, so
// a deliberately loose-γ deployment still gets disk hits for its own
// legitimate files.
func checkFactors(w *mat.Dense, d *core.Decomposition, gamma float64) error {
	if d.B.Rows() != w.Rows() || d.L.Cols() != w.Cols() {
		return fmt.Errorf("engine: cached decomposition is %d×%d for a %d×%d workload",
			d.B.Rows(), d.L.Cols(), w.Rows(), w.Cols())
	}
	normW := math.Sqrt(mat.SquaredSum(w))
	maxResidual := 0.5 * normW
	if gamma > maxResidual {
		maxResidual = gamma
	}
	frob := math.Sqrt(mat.SquaredSum(mat.Sub(w, mat.Mul(d.B, d.L))))
	if frob > d.Residual+1e-6*normW || d.Residual > maxResidual*(1+1e-9) {
		return fmt.Errorf("engine: cached decomposition does not factor this workload (‖W−BL‖=%.3g, stored %.3g, ‖W‖=%.3g)",
			frob, d.Residual, normW)
	}
	return nil
}

// encoder is any cache artifact with a self-contained binary/JSON
// writer: dense decompositions, factored (Kronecker) decompositions, and
// plan documents all persist through writeEncoded.
type encoder interface {
	Encode(w io.Writer) error
}

// writeEncoded persists one cache artifact atomically and durably: temp
// file, fsync, rename, directory fsync. The temp fsync *before* the
// rename is load-bearing — rename is atomic in the namespace but says
// nothing about the data, so renaming a dirty temp lets a crash leave
// the final name pointing at a truncated (even zero-length) file. A
// concurrent reader — another engine sharing the directory — never
// observes a half-written file, and a crash at any point leaves either
// no file or a complete one. The temp name carries the artifact's kind
// (.lrmd-*, .lrmk-*, .plan-*).
//
//lrm:sink — the cache file is on-disk state outside the process
func (e *Engine) writeEncoded(path string, enc encoder) error {
	dir := filepath.Dir(path)
	tmp, err := e.fs.CreateTemp(dir, filepath.Ext(strings.TrimSuffix(path, ".json"))+"-*")
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
