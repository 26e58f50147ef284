package mmxdsp

import (
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

// TestParallelSuiteOutputIsByteIdentical is the acceptance gate for the
// concurrent runner: the full 21-program suite, run sequentially and on a
// wide worker pool, must render every table and figure byte-for-byte
// identically. Output validation is skipped (covered by package tests) so
// the double full-suite run stays affordable in `go test ./...`.
func TestParallelSuiteOutputIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-suite runs; skipped in -short mode")
	}
	benches := suite.All()

	seqOpt := core.DefaultOptions()
	seqOpt.SkipCheck = true
	seqOpt.Parallelism = 1
	seq, err := core.RunAll(benches, seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	parOpt := core.DefaultOptions()
	parOpt.SkipCheck = true
	parOpt.Parallelism = 8 // wider than GOMAXPROCS on small machines: more interleaving
	par, err := core.RunAll(benches, parOpt)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq) != len(benches) || len(par) != len(benches) {
		t.Fatalf("result counts: seq %d, par %d, want %d", len(seq), len(par), len(benches))
	}
	artifacts := map[string]func(core.ResultSet) string{
		"Table2":    core.Table2,
		"Table2CSV": core.Table2CSV,
		"Table3":    core.Table3,
		"Table3CSV": core.Table3CSV,
		"Fig1a":     core.Fig1a,
		"Fig1b":     core.Fig1b,
		"Fig2a":     core.Fig2a,
		"Fig2b":     core.Fig2b,
		"Notes":     core.Notes,
		"Markdown":  core.MarkdownReport,
	}
	for name, render := range artifacts {
		if a, b := render(seq), render(par); a != b {
			t.Errorf("%s differs between -j1 and -j8 runs:\n--- sequential\n%s\n--- parallel\n%s", name, a, b)
		}
	}
}
