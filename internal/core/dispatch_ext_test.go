package core_test

// Cross-dispatch determinism: the rendered evaluation artifacts — Tables 2
// and 3 (CSV) and the full Markdown report — must be byte-identical whether
// the suite runs on the per-instruction loop or at trace
// dispatch. This is the user-facing face of the equivalence guarantee:
// region pricing is a host-side optimization and must never shift a
// reported number. External test package because suite imports core.

import (
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

func TestTablesByteIdenticalAcrossDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-suite runs are slow; skipped with -short")
	}
	render := func(dispatch string) (string, string, string) {
		opt := core.DefaultOptions()
		opt.SkipCheck = true
		opt.Dispatch = dispatch
		rs, err := core.RunAll(suite.All(), opt)
		if err != nil {
			t.Fatalf("RunAll (%s): %v", dispatch, err)
		}
		return core.Table2CSV(rs), core.Table3CSV(rs), core.MarkdownReport(rs)
	}
	t2g, t3g, mdg := render(core.DispatchGeneric)
	t2t, t3t, mdt := render(core.DispatchTrace)
	if t2g != t2t {
		t.Errorf("Table 2 CSV differs across dispatch modes:\n generic:\n%s\n trace:\n%s", t2g, t2t)
	}
	if t3g != t3t {
		t.Errorf("Table 3 CSV differs across dispatch modes:\n generic:\n%s\n trace:\n%s", t3g, t3t)
	}
	if mdg != mdt {
		t.Error("Markdown report differs across dispatch modes")
	}
}
