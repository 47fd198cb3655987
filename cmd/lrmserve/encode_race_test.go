//go:build race

package main

// bulkFloats is TestAppendFloatBulk's sample size. Under the race
// detector its one-goroutine loop runs ten times slower and has no race
// to find, so it checks a tenth of the values.
const bulkFloats = 1_000_000
