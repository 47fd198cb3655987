package main

import (
	"crypto/sha256"
	"sync"

	"lrm/internal/core"
	"lrm/internal/workload"
)

// The warm-W memo takes W off the warm request path. The engine caches
// preparations by W's content fingerprint, but a client that ships W
// inline still pays, on every request, for validating and parsing about
// a megabyte of JSON numbers and fingerprinting the matrix. The memo maps
// SHA-256 over the exact bytes of the "workload" value to the workload
// built from those bytes and its fingerprint. The decoder looks the value
// up before it checks its grammar (decoder.workload), so a repeat of the
// same text costs one bracket scan and one SHA-256; only a miss is
// validated, parsed and fingerprinted.
//
// Only warm traffic is memoized: a W enters when its fingerprint was
// already prepared in the engine as its request arrived, i.e. from its
// second sighting on. A W sent once, like every request of a cold
// workload stream, pins nothing. The same matrix spelled differently
// (1 vs 1.0, other whitespace) is a different key; it misses the memo
// but still hits the engine cache under the same fingerprint. Only texts
// that passed the decoder and parsed in range become keys, which is what
// lets a hit skip the grammar scan.
//
// Memoized matrices are shared by concurrent requests and never written.

const (
	// memoEntries and memoBytes bound the memo: at most memoEntries
	// matrices holding at most memoBytes of float64 data together. A
	// matrix larger than memoBytes is never memoized. The least recently
	// used entry is evicted first.
	memoEntries = 16
	memoBytes   = 256 << 20
)

// memoEntry is one memoized workload.
type memoEntry struct {
	wl   *workload.Workload
	fp   string
	used uint64 // memo clock at the last lookup, for LRU eviction
}

// wMemo is the warm-W memo. The zero value is not usable; use newWMemo.
type wMemo struct {
	mu sync.Mutex
	//lrm:guardedby mu
	m map[[sha256.Size]byte]*memoEntry
	//lrm:guardedby mu
	bytes int
	//lrm:guardedby mu
	clock uint64
	//lrm:guardedby mu
	hits, misses uint64
}

func newWMemo() *wMemo {
	return &wMemo{m: make(map[[sha256.Size]byte]*memoEntry)}
}

// memoStats is the memo section of GET /stats.
type memoStats struct {
	Entries int    `json:"entries"`
	Bytes   int    `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

func (m *wMemo) stats() memoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return memoStats{Entries: len(m.m), Bytes: m.bytes, Hits: m.hits, Misses: m.misses}
}

// lookup returns the entry memoized under key, or nil. It counts
// nothing: the request may still be rejected or its workload replaced,
// and only the workload that wins reaches m.workload.
func (m *wMemo) lookup(key [sha256.Size]byte) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[key]
}

// workload returns the workload the decoded matrix text w encodes and
// its fingerprint: from the memo entry the decoder found for it (a hit),
// otherwise parsed, fingerprinted, and — if warm reports the fingerprint
// as already prepared — memoized under w.key for the next request.
func (m *wMemo) workload(w matrixText, warm func(fp string) bool) (*workload.Workload, string, error) {
	m.mu.Lock()
	if e := w.hit; e != nil {
		m.clock++
		e.used = m.clock
		m.hits++
		m.mu.Unlock()
		return e.wl, e.fp, nil
	}
	m.misses++
	m.mu.Unlock()

	wl, err := w.build()
	if err != nil {
		return nil, "", err
	}
	fp := core.Fingerprint(wl.W)
	if warm(fp) {
		m.put(w.key, &memoEntry{wl: wl, fp: fp})
	}
	return wl, fp, nil
}

// put inserts e under key, evicting least recently used entries past
// the bounds.
func (m *wMemo) put(key [sha256.Size]byte, e *memoEntry) {
	size := 8 * len(e.wl.W.RawData())
	if size > memoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[key]; ok {
		return // a concurrent miss on the same text got here first
	}
	for len(m.m) >= memoEntries || m.bytes+size > memoBytes {
		var oldest [sha256.Size]byte
		first := true
		for k, v := range m.m {
			if first || v.used < m.m[oldest].used {
				oldest, first = k, false
			}
		}
		m.bytes -= 8 * len(m.m[oldest].wl.W.RawData())
		delete(m.m, oldest)
	}
	m.clock++
	e.used = m.clock
	m.m[key] = e
	m.bytes += size
}
