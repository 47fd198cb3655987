package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// answerResponse is lrmserve's POST /answer response.
type answerResponse struct {
	Answers     [][]float64 `json:"answers"`
	Fingerprint string      `json:"fingerprint"`
}

// check verifies a 200 response against its request: one answer of
// length m per histogram, and the workload's fingerprint echoed. With
// withSSE it also parses every value, rejects non-finite ones, and
// returns the squared error against the exact answers W·x and the
// number of entries it covers.
//
// The response is scanned in place rather than decoded with
// encoding/json: a spec-batch response holds 16×1024 numbers, and
// decoding them costs this process about as much CPU as the server
// spends answering, on the two cores the two share. Without withSSE
// the numbers are only delimited, which is cheaper still; the capacity
// phase checks that way.
func check(r *request, body []byte, withSSE bool) (sse float64, entries int, err error) {
	s := &scanner{b: body}
	var haveAnswers, haveFP bool
	if err := s.expect('{'); err != nil {
		return 0, 0, err
	}
	for {
		key, err := s.str()
		if err != nil {
			return 0, 0, err
		}
		if err := s.expect(':'); err != nil {
			return 0, 0, err
		}
		switch {
		case key == "answers" && !haveAnswers:
			haveAnswers = true
			if sse, entries, err = s.answers(r.exact, withSSE); err != nil {
				return 0, 0, err
			}
		case key == "fingerprint" && !haveFP:
			haveFP = true
			fp, err := s.str()
			if err != nil {
				return 0, 0, err
			}
			if fp != r.fp {
				return 0, 0, fmt.Errorf("fingerprint %q, want %q", fp, r.fp)
			}
		default:
			return 0, 0, fmt.Errorf("unexpected key %q in answer", key)
		}
		if !s.next(',') {
			break
		}
	}
	if err := s.expect('}'); err != nil {
		return 0, 0, err
	}
	if s.skipSpace(); s.i != len(s.b) {
		return 0, 0, fmt.Errorf("trailing data at offset %d of answer", s.i)
	}
	if !haveAnswers || !haveFP {
		return 0, 0, fmt.Errorf("answer lacks answers or fingerprint")
	}
	return sse, entries, nil
}

// scanner reads the JSON of an answer response.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next token.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) expect(c byte) error {
	if !s.next(c) {
		return fmt.Errorf("answer offset %d: want %q", s.i, c)
	}
	return nil
}

// str reads a string; keys and hex fingerprints need no escapes.
func (s *scanner) str() (string, error) {
	if err := s.expect('"'); err != nil {
		return "", err
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 || bytes.IndexByte(s.b[s.i:s.i+n], '\\') >= 0 {
		return "", fmt.Errorf("answer offset %d: unsupported string", s.i)
	}
	v := string(s.b[s.i : s.i+n])
	s.i += n + 1
	return v, nil
}

// number delimits the next number.
func (s *scanner) number() ([]byte, error) {
	s.skipSpace()
	j := s.i
	for j < len(s.b) {
		c := s.b[j]
		if c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			j++
			continue
		}
		break
	}
	if j == s.i {
		return nil, fmt.Errorf("answer offset %d: want a number", s.i)
	}
	tok := s.b[s.i:j]
	s.i = j
	return tok, nil
}

// answers reads the answers array, which must hold one answer per row
// of exact, each as long as that row.
func (s *scanner) answers(exact [][]float64, withSSE bool) (sse float64, entries int, err error) {
	if err := s.expect('['); err != nil {
		return 0, 0, err
	}
	for i := 0; ; i++ {
		if i == len(exact) {
			return sse, entries, s.expect(']')
		}
		if i > 0 {
			if err := s.expect(','); err != nil {
				return 0, 0, fmt.Errorf("%d answers for %d histograms", i, len(exact))
			}
		}
		if err := s.expect('['); err != nil {
			return 0, 0, err
		}
		for j, want := range exact[i] {
			if j > 0 {
				if err := s.expect(','); err != nil {
					return 0, 0, fmt.Errorf("answer %d has %d entries, want %d", i, j, len(exact[i]))
				}
			}
			tok, err := s.number()
			if err != nil {
				return 0, 0, err
			}
			if withSSE {
				v, err := strconv.ParseFloat(string(tok), 64)
				if err != nil || math.IsInf(v, 0) {
					return 0, 0, fmt.Errorf("answer %d entry %d: %q is not a finite number", i, j, tok)
				}
				sse += (v - want) * (v - want)
			}
		}
		if err := s.expect(']'); err != nil {
			return 0, 0, fmt.Errorf("answer %d has more than %d entries", i, len(exact[i]))
		}
		entries += len(exact[i])
	}
}
