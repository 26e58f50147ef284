package core_test

// Dispatch names: the rendered evaluation artifacts — Tables 2 and 3 (CSV)
// and the full Markdown report — must be byte-identical whichever
// dispatch name a run gives, and every name must run trace dispatch. The
// VM's per-instruction loop is held to trace dispatch, report by report,
// by the vm differentials (TestDispatchModesAgree). External test package
// because suite imports core.

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
			t.Fatalf("RunAll (%q): %v", dispatch, err)
		}
		formed := 0
		for _, r := range rs {
			formed += r.Traces.Formed
		}
		if formed == 0 {
			t.Errorf("dispatch %q formed no traces: it did not run trace dispatch", dispatch)
		}
		return core.Table2CSV(rs), core.Table3CSV(rs), core.MarkdownReport(rs)
	}
	t2g, t3g, mdg := render("generic")
	t2t, t3t, mdt := render("")
	if t2g != t2t {
		t.Errorf("Table 2 CSV differs across dispatch names:\n generic:\n%s\n default:\n%s", t2g, t2t)
	}
	if t3g != t3t {
		t.Errorf("Table 3 CSV differs across dispatch names:\n generic:\n%s\n default:\n%s", t3g, t3t)
	}
	if mdg != mdt {
		t.Error("Markdown report differs across dispatch names")
	}
}
