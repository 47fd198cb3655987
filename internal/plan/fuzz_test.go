package plan

import (
	"bytes"
	"math"
	"testing"
)

// FuzzPlanDecode hammers the persisted-plan decoder: arbitrary bytes
// must either be rejected or produce a plan that re-validates, carries a
// registered mechanism and a valid ε, and round-trips through Encode
// with a stable digest. Plans are the second on-disk surface a restarted
// engine trusts, so the self-checking document must stay self-checking
// under mutation.
func FuzzPlanDecode(f *testing.F) {
	seed := &Plan{
		Fingerprint: "wl-fixture",
		Mechanism:   "lm",
		Eps:         0.5,
		SSE:         1.25,
		Candidates: []Candidate{
			{Name: "lm", SSE: 1.25, Source: "analytic"},
			{Name: "lrm", SSE: math.NaN(), Source: "skipped", Reason: "fixture"},
		},
	}
	var buf bytes.Buffer
	if err := seed.Encode(&buf); err != nil {
		f.Fatalf("encoding seed: %v", err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{}"))
	f.Add([]byte(`{"mechanism":"lm","eps":1,"sse":0,"fingerprint":"x","digest":"nope","lrm_options":{}}`))
	tampered := bytes.Clone(valid)
	tampered[bytes.IndexByte(tampered, '5')] = '6'
	f.Add(tampered)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted documents must satisfy what Decode promises.
		if err := p.Eps.Validate(); err != nil {
			t.Fatalf("accepted invalid eps: %v", err)
		}
		if p.Fingerprint == "" {
			t.Fatal("accepted a plan with no fingerprint")
		}
		if math.IsNaN(p.SSE) || math.IsInf(p.SSE, 0) || p.SSE < 0 {
			t.Fatalf("accepted invalid sse %v", p.SSE)
		}
		// Round-trip: Encode must regenerate a document Decode accepts
		// with the digest intact.
		var rt bytes.Buffer
		if err := p.Encode(&rt); err != nil {
			t.Fatalf("re-encoding accepted plan: %v", err)
		}
		q, err := Decode(&rt)
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if q.Digest() != p.Digest() {
			t.Fatalf("digest drift: %s vs %s", q.Digest(), p.Digest())
		}
	})
}
