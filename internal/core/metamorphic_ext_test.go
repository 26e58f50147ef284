package core_test

// Whole-program metamorphic timing: a configuration change with a known
// direction must move every suite program's cycle count that way (or leave
// it), at trace dispatch. This checks region pricing at whole-program scale
// without comparing against another interpreter: a schedule replayed under
// the wrong entry state or a misattributed region shows up as a relation
// that breaks for some program.

import (
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/suite"
)

func TestMetamorphicCycleRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full-suite configurations are slow; skipped with -short")
	}
	pen := mem.DefaultPenalties()
	withPentium := func(edit func(*pentium.Config)) func(*core.Options) {
		return func(o *core.Options) {
			cfg := pentium.DefaultConfig()
			edit(&cfg)
			o.Pentium = &cfg
		}
	}
	withCache := func(spec core.CacheSpec) func(*core.Options) {
		return func(o *core.Options) { o.Cache = &spec }
	}
	doubled := core.DefaultCacheSpec()
	doubled.DCacheMiss, doubled.L2Access, doubled.L2Miss = 2*pen.DCacheMiss, 2*pen.L2Access, 2*pen.L2Miss
	smallL1 := core.DefaultCacheSpec()
	smallL1.L1Size = 1 << 10
	relations := []struct {
		name string
		// up: cycles must not go down; otherwise they must not go up.
		up   bool
		edit func(*core.Options)
	}{
		{"no-pairing", true, withPentium(func(c *pentium.Config) { c.DisablePairing = true })},
		{"no-btb", true, withPentium(func(c *pentium.Config) { c.DisableBTB = true })},
		{"mispredict-8", true, withPentium(func(c *pentium.Config) { c.MispredictPenalty = 8 })},
		{"mmx-mul-9", true, withPentium(func(c *pentium.Config) { c.MMXMulLatency = 9 })},
		{"doubled-cache-penalties", true, withCache(doubled)},
		{"l1-1KiB", true, withCache(smallL1)},
		{"mispredict-1", false, withPentium(func(c *pentium.Config) { c.MispredictPenalty = 1 })},
		{"emms-0", false, withPentium(func(c *pentium.Config) { c.EmmsLatency = 0 })},
		{"perfect-cache", false, func(o *core.Options) { o.PerfectCache = true }},
	}
	run := func(t *testing.T, comp *core.Compiled, edit func(*core.Options)) uint64 {
		t.Helper()
		opt := core.DefaultOptions()
		opt.Dispatch = core.DispatchTrace
		opt.SkipCheck = true
		if edit != nil {
			edit(&opt)
		}
		res, err := core.RunCompiled(comp, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Cycles
	}
	for _, b := range suite.All() {
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			comp, err := core.CompileBenchmark(b)
			if err != nil {
				t.Fatal(err)
			}
			base := run(t, comp, nil)
			for _, r := range relations {
				got := run(t, comp, r.edit)
				if (r.up && got < base) || (!r.up && got > base) {
					t.Errorf("%s: %d cycles, baseline %d", r.name, got, base)
				}
			}
		})
	}
}
