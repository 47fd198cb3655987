package main

import (
	"bytes"
	"sync"

	"lrm/internal/core"
	"lrm/internal/workload"
)

// The warm-W memo takes W off the warm request path. The engine caches
// preparations by W's content fingerprint, but a client that ships W
// inline would still pay, on every request, for validating and parsing
// about a megabyte of JSON numbers and fingerprinting the matrix. Each
// memo entry owns a copy of the exact text of a "workload" value and the
// fingerprint of the matrix it encodes. At the "workload" value the
// decoder asks whether the body at the cursor starts with a memoized
// text (decoder.workload); on a hit it skips the text. Recognizing a
// repeat costs one byte comparison against each entry, most recently
// used first; nothing is hashed. Only a miss is validated, parsed and
// fingerprinted.
//
// A hit needs no parsed matrix: the engine reads W only to prepare it,
// so the handler sends it the memoized fingerprint alone. When the
// engine no longer holds that preparation (engine.ErrNotResident), the
// handler parses the memoized text (memoEntry.build) and sends the
// request again with W. The memo therefore keeps texts, not matrices.
//
// Only warm traffic is memoized: a W enters when its fingerprint was
// already prepared in the engine as its request arrived, i.e. from its
// second sighting on. A W sent once, like every request of a cold
// workload stream, pins nothing. The same matrix spelled differently
// (1 vs 1.0, other whitespace) is a different text; it misses the memo
// but still hits the engine cache under the same fingerprint.
//
// A prefix match is exact. Only texts that passed the decoder and parsed
// in range are memoized, and a JSON array is prefix-free: the decoder's
// scan of a body that starts with a memoized text stops at the same byte
// the text ends at, so a hit decodes the body exactly as a miss would,
// and at most one entry can match.
//
// Entries are shared by concurrent requests and never written after
// insertion, so lookups compare against them outside the lock.

const (
	// memoEntries and memoBytes bound the memo: at most memoEntries texts
	// holding at most memoBytes together. A text longer than memoBytes is
	// never memoized. The least recently used entry is evicted first.
	memoEntries = 16
	memoBytes   = 256 << 20
)

// memoEntry is one memoized workload text.
type memoEntry struct {
	text       []byte // the exact "workload" value, owned by the entry
	rows, cols int
	fp         string
}

// build parses the memoized text into its workload.
func (e *memoEntry) build() (*workload.Workload, error) {
	return matrixText{span: e.text, rows: e.rows, total: e.rows * e.cols, ragged: -1}.build()
}

// wMemo is the warm-W memo. The zero value is an empty memo.
type wMemo struct {
	mu sync.Mutex
	// entries is ordered most recently used first.
	//
	//lrm:guardedby mu
	entries []*memoEntry
	//lrm:guardedby mu
	bytes int
	//lrm:guardedby mu
	hits, misses uint64
}

func newWMemo() *wMemo { return new(wMemo) }

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
	return memoStats{Entries: len(m.entries), Bytes: m.bytes, Hits: m.hits, Misses: m.misses}
}

// lookup returns the entry whose text b starts with, or nil. It copies
// the entry pointers under the lock and compares outside it. It counts
// nothing: the request may still be rejected or its workload replaced,
// and only the workload that wins reaches m.workload.
func (m *wMemo) lookup(b []byte) *memoEntry {
	var es [memoEntries]*memoEntry
	m.mu.Lock()
	n := copy(es[:], m.entries)
	m.mu.Unlock()
	for _, e := range es[:n] {
		if bytes.HasPrefix(b, e.text) {
			return e
		}
	}
	return nil
}

// workload resolves the decoded matrix text w. On a hit (w.hit, found by
// the decoder) it returns no workload, only the memoized fingerprint.
// On a miss it parses and fingerprints w, and memoizes a copy of its
// text if warm reports the fingerprint as already prepared.
func (m *wMemo) workload(w matrixText, warm func(fp string) bool) (*workload.Workload, string, error) {
	m.mu.Lock()
	if e := w.hit; e != nil {
		m.hits++
		m.touch(e)
		m.mu.Unlock()
		return nil, e.fp, nil
	}
	m.misses++
	m.mu.Unlock()

	wl, err := w.build()
	if err != nil {
		return nil, "", err
	}
	fp := core.Fingerprint(wl.W)
	if warm(fp) {
		m.put(&memoEntry{text: bytes.Clone(w.span), rows: w.rows, cols: w.total / w.rows, fp: fp})
	}
	return wl, fp, nil
}

// touch moves e, if it is still memoized, to the front.
//
//lrm:guardedby mu
func (m *wMemo) touch(e *memoEntry) {
	for i, x := range m.entries {
		if x == e {
			copy(m.entries[1:i+1], m.entries[:i])
			m.entries[0] = e
			return
		}
	}
}

// put inserts e at the front, evicting least recently used entries past
// the bounds.
func (m *wMemo) put(e *memoEntry) {
	size := len(e.text)
	if size > memoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, x := range m.entries {
		if x.fp == e.fp && bytes.Equal(x.text, e.text) {
			return // a concurrent miss on the same text got here first
		}
	}
	for len(m.entries) >= memoEntries || m.bytes+size > memoBytes {
		last := len(m.entries) - 1
		m.bytes -= len(m.entries[last].text)
		m.entries[last] = nil
		m.entries = m.entries[:last]
	}
	m.entries = append(m.entries, nil)
	copy(m.entries[1:], m.entries)
	m.entries[0] = e
	m.bytes += size
}
