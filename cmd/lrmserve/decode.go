package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"lrm/internal/mat"
	"lrm/internal/workload"
)

// answerBody is a decoded POST /answer body. The workload matrix stays
// as the exact JSON text of its value and, when the warm-W memo holds
// that text, the memo entry: the handler parses the text (parseFloats)
// only on a memo miss.
type answerBody struct {
	// Workload is the text of the "workload" value; its span is nil when
	// the key is absent, null, or [].
	Workload matrixText
	Spec     string
	//lrm:source — client-supplied unit counts, raw until noised
	Histograms [][]float64
	Eps        float64
	Budget     float64
	Seed       int64
	// Tenant names the durable ε budget this request draws from, on a
	// server running with -tenant-eps. Empty means "default".
	Tenant string
}

// Deliberate deviations from encoding/json: each rejects a body that
// encoding/json's Decoder accepts (see decodeAnswer).
var (
	errTrailingData = errors.New("data after the top-level value")
	errNullElement  = errors.New("null inside a numeric array")
)

// answerFields are the body's keys. A key matches a field exactly or
// under Unicode case folding (bytes.EqualFold), as in encoding/json.
var answerFields = [...]string{"workload", "spec", "histograms", "eps", "budget", "seed", "tenant"}

const (
	fieldWorkload = iota
	fieldSpec
	fieldHistograms
	fieldEps
	fieldBudget
	fieldSeed
	fieldTenant
)

// decodeAnswer decodes a POST /answer body in one pass over its bytes,
// with no reflection and no intermediate [][]float64 for the workload.
// It accepts what encoding/json accepts when it decodes the body into
// the wire struct with a Decoder and DisallowUnknownFields, followed by
// the workload shape check (every row the same non-zero length):
//
//   - keys match a field exactly or under case folding; unknown keys
//     are rejected;
//   - a repeated key takes its last value;
//   - null clears "workload" and "histograms" and leaves the other
//     fields unchanged;
//   - numbers follow the JSON grammar and parse as strconv parses them,
//     so an out-of-range number (1e400) or a non-integer seed is
//     rejected; a matrix entry that is an optional '-' and at most 15
//     digits is read as an exact integer (parseNumber);
//   - strings are unescaped as encoding/json does, with invalid UTF-8
//     and unpaired surrogates replaced by U+FFFD.
//
// Its deliberate deviations each reject something encoding/json
// accepts:
//
//   - errTrailingData: anything but whitespace after the top-level
//     value. The Decoder stops reading at the end of the first value.
//   - errNullElement: null as a row or entry of "workload" or
//     "histograms". encoding/json stores nothing for it, which leaves a
//     zero, or for a repeated key the previous value's entry.
//
// At the "workload" value the decoder looks for a memoized text at the
// cursor (see decoder.workload): a text the memo holds is skipped
// without a grammar scan. Every text the memo holds passed this decoder,
// so a hit decodes the body exactly as a miss would.
//
// FuzzDecodeAnswer holds the decoder to this contract, with and without
// a memo hit.
func decodeAnswer(body []byte, memo *wMemo) (answerBody, error) {
	d := decoder{b: body, memo: memo}
	var a answerBody
	d.ws()
	switch {
	case d.null():
	case d.peek() == '{':
		if err := d.object(&a); err != nil {
			return answerBody{}, err
		}
	default:
		return answerBody{}, d.errorf("request body must be a JSON object")
	}
	d.ws()
	if d.i != len(d.b) {
		return answerBody{}, fmt.Errorf("%w at offset %d", errTrailingData, d.i)
	}
	// The shape check applies to the workload value that won.
	switch w := d.w; {
	case w.rows == 0:
	case w.ragged >= 0:
		return answerBody{}, fmt.Errorf("workload row %d differs in length from row 0", w.ragged)
	case w.total == 0:
		return answerBody{}, errors.New("workload matrix has empty rows")
	default:
		a.Workload = w
	}
	return a, nil
}

// decoder is a cursor over a JSON body.
type decoder struct {
	b    []byte
	i    int
	memo *wMemo
	// w is the latest "workload" value; a repeated key replaces it.
	w matrixText
}

// matrixText is a validated, unparsed array of arrays of numbers.
type matrixText struct {
	span        []byte
	rows, total int
	ragged      int // first row whose length differs from row 0's, or -1
	// hit is the memo entry whose text equals span, or nil on a memo
	// miss.
	hit *memoEntry
}

func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) ws() { d.i = skipSpace(d.b, d.i) }

// null consumes a null literal if one starts at the cursor.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += 4
		return true
	}
	return false
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.i)
}

// object decodes the top-level object into a.
func (d *decoder) object(a *answerBody) error {
	d.i++ // '{'
	d.ws()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errorf("expected a key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		field := -1
		for f, name := range answerFields {
			if bytes.EqualFold(key, []byte(name)) {
				field = f
				break
			}
		}
		if field < 0 {
			return fmt.Errorf("unknown field %q", key)
		}
		d.ws()
		if d.peek() != ':' {
			return d.errorf("expected ':' after key")
		}
		d.i++
		d.ws()
		if err := d.value(a, field); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
			d.ws()
		case '}':
			d.i++
			return nil
		default:
			return d.errorf("expected ',' or '}'")
		}
	}
}

// value decodes one field's value into a (the workload into d.w).
func (d *decoder) value(a *answerBody, field int) error {
	name := answerFields[field]
	if field == fieldWorkload && d.w.span != nil && d.w.hit == nil {
		// The value about to be replaced must still be in range:
		// encoding/json reports an overflow wherever it occurs. (A
		// memoized text was built once, so it is.)
		if err := parseFloats(d.w.span, nil, nil); err != nil {
			return err
		}
	}
	if d.null() {
		switch field {
		case fieldWorkload:
			d.w = matrixText{}
		case fieldHistograms:
			a.Histograms = nil
		}
		return nil
	}
	switch field {
	case fieldWorkload:
		w, err := d.workload()
		if err != nil {
			return err
		}
		d.w = w
	case fieldHistograms:
		h, err := d.matrix(name)
		if err != nil {
			return err
		}
		flat := make([]float64, h.total)
		a.Histograms = make([][]float64, h.rows)
		return parseFloats(h.span, flat, a.Histograms)
	case fieldSpec, fieldTenant:
		if d.peek() != '"' {
			return d.errorf("%s must be a string", name)
		}
		s, err := d.str()
		if err != nil {
			return err
		}
		if field == fieldSpec {
			a.Spec = string(s)
		} else {
			a.Tenant = string(s)
		}
	case fieldEps, fieldBudget:
		tok, err := d.number(name)
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return fmt.Errorf("%s %s out of range", name, tok)
		}
		if field == fieldEps {
			a.Eps = v
		} else {
			a.Budget = v
		}
	case fieldSeed:
		tok, err := d.number(name)
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return fmt.Errorf("seed %s is not a 64-bit integer", tok)
		}
		a.Seed = v
	}
	return nil
}

// number validates the JSON number at the cursor, advances past it, and
// returns its text.
func (d *decoder) number(name string) ([]byte, error) {
	start := d.i
	end := numberEnd(d.b, start)
	if end < 0 {
		return nil, d.errorf("%s must be a number", name)
	}
	d.i = end
	return d.b[start:end], nil
}

// workload decodes the "workload" value at the cursor. When the body at
// the cursor starts with a text the memo holds, the value is that text:
// every memoized text passed d.matrix and build, and a JSON array is
// prefix-free, so d.matrix from the cursor would have stopped at the
// same byte. A hit costs one byte comparison per memo entry and no
// grammar scan. On a miss d.matrix validates the value.
func (d *decoder) workload() (matrixText, error) {
	if e := d.memo.lookup(d.b[d.i:]); e != nil {
		start := d.i
		d.i += len(e.text)
		return matrixText{span: d.b[start:d.i], rows: e.rows, total: e.rows * e.cols, ragged: -1, hit: e}, nil
	}
	return d.matrix("workload")
}

// numberEnd returns the end of the JSON number starting at b[i], or -1
// when none does: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// (The unsigned c-'0' < 10 tests are digit checks without a branch for
// each bound: this runs once per matrix entry.)
func numberEnd(b []byte, i int) int {
	n := len(b)
	if i < n && b[i] == '-' {
		i++
	}
	switch {
	case i >= n:
		return -1
	case b[i] == '0':
		i++
	case b[i]-'1' < 9:
		for i++; i < n && b[i]-'0' < 10; i++ {
		}
	default:
		return -1
	}
	if i < n && b[i] == '.' {
		i++
		j := i
		for ; i < n && b[i]-'0' < 10; i++ {
		}
		if i == j {
			return -1
		}
	}
	if i < n && b[i]|0x20 == 'e' {
		i++
		if i < n && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		for ; i < n && b[i]-'0' < 10; i++ {
		}
		if i == j {
			return -1
		}
	}
	return i
}

// matrix validates the array of arrays of numbers at the cursor and
// advances past it. It parses no number: callers that need the values
// run parseFloats over the returned text.
func (d *decoder) matrix(name string) (matrixText, error) {
	m := matrixText{ragged: -1}
	start := d.i
	if d.peek() != '[' {
		return m, d.errorf("%s must be an array of arrays of numbers", name)
	}
	d.i++
	d.ws()
	if d.peek() == ']' {
		d.i++
		m.span = d.b[start:d.i]
		return m, nil
	}
	width := 0
	for {
		if d.null() {
			return m, fmt.Errorf("%w: %s row at offset %d", errNullElement, name, d.i-4)
		}
		if d.peek() != '[' {
			return m, d.errorf("%s must be an array of arrays of numbers", name)
		}
		d.i++
		n, err := d.row(name)
		if err != nil {
			return m, err
		}
		if m.rows == 0 {
			width = n
		} else if n != width && m.ragged < 0 {
			m.ragged = m.rows
		}
		m.rows++
		m.total += n
		d.ws()
		if c := d.peek(); c == ',' {
			d.i++
			d.ws()
		} else if c == ']' {
			d.i++
			m.span = d.b[start:d.i]
			return m, nil
		} else {
			return m, d.errorf("expected ',' or ']' in %s", name)
		}
	}
}

// build parses a rectangular matrix text into a workload.
func (t matrixText) build() (*workload.Workload, error) {
	data := make([]float64, t.total)
	if err := parseFloats(t.span, data, nil); err != nil {
		return nil, err
	}
	return &workload.Workload{W: mat.NewFromData(t.rows, t.total/t.rows, data), Name: "http"}, nil
}

// row validates the entries of one inner array, after its '[', and
// advances past its ']'. It returns the entry count.
func (d *decoder) row(name string) (int, error) {
	d.ws()
	if d.peek() == ']' {
		d.i++
		return 0, nil
	}
	b, i, n := d.b, d.i, 0
	for {
		end := numberEnd(b, i)
		if end < 0 {
			d.i = i
			if d.null() {
				return 0, fmt.Errorf("%w: %s entry at offset %d", errNullElement, name, i)
			}
			return 0, d.errorf("%s entries must be numbers", name)
		}
		i = end
		n++
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i < len(b) && b[i] == ',' {
			i++
			for i < len(b) && isSpace(b[i]) {
				i++
			}
			continue
		}
		if i < len(b) && b[i] == ']' {
			d.i = i + 1
			return n, nil
		}
		d.i = i
		return 0, d.errorf("expected ',' or ']' in %s", name)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// skipSpace returns the index of the first non-whitespace byte at or
// after b[i].
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// parseFloats parses the numbers of a matrix text that d.matrix
// validated, in order, into flat, and slices flat into rows (one entry
// per inner array). With flat nil it only checks that every number is
// in range.
func parseFloats(span []byte, flat []float64, rows [][]float64) error {
	k, r, start := 0, -1, 0
	for i := 1; i < len(span); i++ {
		switch c := span[i]; {
		case c == '[':
			r++
			start = k
		case c == ']':
			if 0 <= r && r < len(rows) {
				rows[r] = flat[start:k:k]
			}
		case c == '-' || '0' <= c && c <= '9':
			end := numberEnd(span, i)
			v, err := parseNumber(span[i:end])
			if err != nil {
				return fmt.Errorf("number %s out of range", span[i:end])
			}
			if flat != nil {
				flat[k] = v
			}
			k++
			i = end - 1
		}
	}
	return nil
}

// parseNumber parses a JSON number token as strconv.ParseFloat does. A
// token that is an optional '-' and at most 15 digits is an integer below
// 10^15 < 2^53, which float64 holds exactly, so it is read here without
// strconv: histograms are counts, and most entries take this path.
func parseNumber(tok []byte) (float64, error) {
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 15 {
		return strconv.ParseFloat(string(tok), 64)
	}
	var n uint64
	for _, c := range digits {
		if c-'0' >= 10 {
			return strconv.ParseFloat(string(tok), 64)
		}
		n = 10*n + uint64(c-'0')
	}
	v := float64(n)
	if len(digits) < len(tok) {
		v = -v // -0 too, as strconv gives it
	}
	return v, nil
}

// str decodes the JSON string at the cursor (which is '"') and advances
// past it. The result aliases the body when the string needs no
// unescaping; otherwise it is built in a fresh buffer.
func (d *decoder) str() ([]byte, error) {
	d.i++ // opening quote
	start := d.i
	// Fast path: printable ASCII with no escapes.
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			d.i++
			return d.b[start : d.i-1], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		d.i++
	}
	out := append([]byte(nil), d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return out, nil
		case c < ' ':
			return nil, d.errorf("control character in string")
		case c == '\\':
			if d.i+1 >= len(d.b) {
				return nil, d.errorf("unterminated string")
			}
			switch e := d.b[d.i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.b, d.i)
				if r < 0 {
					return nil, d.errorf("invalid \\u escape")
				}
				d.i += 6
				if utf16.IsSurrogate(r) {
					if r2 := hex4(d.b, d.i); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							d.i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, d.errorf("invalid escape")
			}
			d.i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			out = utf8.AppendRune(out, r) // invalid bytes become U+FFFD
			d.i += size
		}
	}
	return nil, d.errorf("unterminated string")
}

// hex4 decodes the \uXXXX escape at b[i:], or returns -1.
func hex4(b []byte, i int) rune {
	if i+6 > len(b) || b[i] != '\\' || b[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
