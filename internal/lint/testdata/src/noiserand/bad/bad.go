// Package bad holds noiserand want-diagnostic fixtures: a math/rand
// import, constant-seeded sources, a baked-in Seed field, and a Laplace
// draw outside internal/privacy.
package bad

import (
	"math/rand" // want `import of math/rand outside internal/rng`

	"lrm/internal/rng"
)

func replayable() *rng.Source {
	return rng.New(42) // want `constant seed 42`
}

func reseed(s *rng.Source) {
	s.Reseed(7) // want `constant seed 7`
}

type options struct {
	Seed int64
}

func configured() options {
	return options{Seed: 9} // want `constant Seed: 9`
}

func shuffle(n int) int {
	return rand.Intn(n)
}

func inlineNoise(s *rng.Source, v float64) float64 {
	return v + s.Laplace(1) // want `direct Source.Laplace draw outside internal/privacy`
}
