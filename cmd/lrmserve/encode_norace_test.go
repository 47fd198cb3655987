//go:build !race

package main

// bulkFloats is TestAppendFloatBulk's sample size.
const bulkFloats = 10_000_000
