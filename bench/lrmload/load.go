package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// maxClients is the most concurrent clients any phase runs: the
// reference host has two cores, shared by the server and this
// generator.
const maxClients = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxClients,
			MaxIdleConnsPerHost: maxClients,
			DisableCompression:  true,
		},
	}
}

// post sends one request and returns the status and the whole response
// body; the caller times it.
func post(ctx context.Context, hc *http.Client, base string, r *request) (int, []byte, error) {
	readers := make([]io.Reader, len(r.parts))
	for i, p := range r.parts {
		readers[i] = bytes.NewReader(p)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/answer", io.MultiReader(readers...))
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = r.size
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	Clients   int     `json:"clients"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	// Failed counts transport errors, non-200 responses and responses
	// that fail check.
	Failed int `json:"failed"`
	// Histograms is the number of histograms answered by successful
	// requests.
	Histograms int      `json:"histograms"`
	Errors     []string `json:"errors,omitempty"`

	// latencies holds one entry per attempted request in milliseconds;
	// failed requests are +Inf, so they miss every latency limit.
	latencies []float64
	sse       float64
	entries   int
}

// maxErrors bounds the error messages a phase keeps.
const maxErrors = 5

func (p *phase) fail(lat float64, err error) {
	p.Attempted++
	p.Failed++
	p.latencies = append(p.latencies, lat)
	if len(p.Errors) < maxErrors {
		p.Errors = append(p.Errors, err.Error())
	}
}

func (p *phase) merge(q *phase) {
	p.Seconds += q.Seconds
	p.Attempted += q.Attempted
	p.Succeeded += q.Succeeded
	p.Failed += q.Failed
	p.Histograms += q.Histograms
	p.latencies = append(p.latencies, q.latencies...)
	p.sse += q.sse
	p.entries += q.entries
	for _, e := range q.Errors {
		if len(p.Errors) < maxErrors {
			p.Errors = append(p.Errors, e)
		}
	}
}

// send issues one request from src and records its outcome, checked
// as check does with withSSE. It reports false when src is exhausted.
func (p *phase) send(ctx context.Context, hc *http.Client, base string, src *source, withSSE bool) bool {
	r, err := src.take()
	if err != nil {
		p.fail(math.Inf(1), err)
		return false
	}
	start := time.Now()
	status, body, err := post(ctx, hc, base, r)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	switch {
	case err != nil:
		p.fail(math.Inf(1), err)
	case status != http.StatusOK:
		p.fail(math.Inf(1), fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body)))
	default:
		sse, n, err := check(r, body, withSSE)
		if err != nil {
			p.fail(math.Inf(1), err)
			return true
		}
		p.Attempted++
		p.Succeeded++
		p.Histograms += len(r.hists)
		p.latencies = append(p.latencies, ms)
		p.sse += sse
		p.entries += n
	}
	return true
}

// runPhase drives the server with the given number of closed-loop
// clients for d: each sends its next request as soon as the previous
// answer arrives. Seconds runs until the last answer.
func runPhase(ctx context.Context, hc *http.Client, base string, src *source, clients int, d time.Duration, withSSE bool) *phase {
	start := time.Now()
	end := start.Add(d)
	parts := make([]*phase, clients)
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = &phase{}
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				if !p.send(ctx, hc, base, src, withSSE) {
					return
				}
			}
		}(parts[c])
	}
	wg.Wait()
	out := &phase{Clients: clients}
	for _, p := range parts {
		out.merge(p)
	}
	out.Seconds = time.Since(start).Seconds()
	return out
}
