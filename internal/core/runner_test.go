package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mmxdsp/internal/pentium"
	"mmxdsp/internal/vm"
)

// smallSuite builds 2n isolated vadd benchmarks with distinct names, sized
// to keep the worker pool busy without slowing the test suite down.
func smallSuite(n int) []Benchmark {
	var out []Benchmark
	for i := 0; i < n; i++ {
		c, m := testBenches(64 + 16*i)
		c.Base = fmt.Sprintf("vadd%d", i)
		m.Base = fmt.Sprintf("vadd%d", i)
		out = append(out, c, m)
	}
	return out
}

func TestRunAllParallelMatchesSequential(t *testing.T) {
	benches := smallSuite(8)

	seq := DefaultOptions()
	seq.Parallelism = 1
	seqRes, err := RunAll(benches, seq)
	if err != nil {
		t.Fatal(err)
	}

	par := DefaultOptions()
	par.Parallelism = 8
	parRes, err := RunAll(benches, par)
	if err != nil {
		t.Fatal(err)
	}

	if len(seqRes) != len(benches) || len(parRes) != len(benches) {
		t.Fatalf("result counts: seq %d, par %d, want %d", len(seqRes), len(parRes), len(benches))
	}
	// Every rendered artifact must be byte-identical whatever the pool
	// width: simulation state is fully per-run.
	for what, render := range map[string]func(ResultSet) string{
		"Table2": Table2, "Table2CSV": Table2CSV,
		"Table3": Table3, "Table3CSV": Table3CSV,
		"Fig1a": Fig1a, "Fig1b": Fig1b, "Fig2a": Fig2a, "Fig2b": Fig2b,
		"Notes": Notes,
	} {
		if a, b := render(seqRes), render(parRes); a != b {
			t.Errorf("%s differs between sequential and parallel runs:\n--- seq\n%s\n--- par\n%s", what, a, b)
		}
	}
	for name, sr := range seqRes {
		pr := parRes[name]
		if pr == nil {
			t.Fatalf("parallel run missing %s", name)
		}
		if sr.Report.Cycles != pr.Report.Cycles ||
			sr.Report.DynamicInstructions != pr.Report.DynamicInstructions ||
			sr.Report.L1Misses != pr.Report.L1Misses {
			t.Errorf("%s: seq %+v != par %+v", name, sr.Report, pr.Report)
		}
	}
}

func TestRunAllPartialFailureAggregation(t *testing.T) {
	good1, good2 := testBenches(64)
	boom := Benchmark{
		Base: "boom", Version: VersionC,
		Build: buildScalarVecAdd(16),
		Check: func(c *vm.CPU) error { return fmt.Errorf("forced failure") },
	}
	benches := []Benchmark{good1, boom, good2}
	for _, parallelism := range []int{1, 4} {
		opt := DefaultOptions()
		opt.Parallelism = parallelism
		res, err := RunAll(benches, opt)
		if err == nil {
			t.Fatalf("parallelism %d: expected aggregated error", parallelism)
		}
		var runErr *RunError
		if !errors.As(err, &runErr) {
			t.Fatalf("parallelism %d: error is %T, want *RunError", parallelism, err)
		}
		if len(runErr.Failures) != 1 || runErr.Failures[0].Name != "boom.c" {
			t.Fatalf("parallelism %d: failures = %+v", parallelism, runErr.Failures)
		}
		if runErr.Total != 3 {
			t.Errorf("parallelism %d: total = %d, want 3", parallelism, runErr.Total)
		}
		// Partial results: the two healthy benchmarks still ran.
		if len(res) != 2 || res["vadd.c"] == nil || res["vadd.mmx"] == nil {
			t.Errorf("parallelism %d: partial results = %v", parallelism, SortedNames(res))
		}
		if res["boom.c"] != nil {
			t.Errorf("parallelism %d: failed benchmark must not appear in results", parallelism)
		}
	}
}

func TestRunAllProgressRetirement(t *testing.T) {
	benches := smallSuite(4)
	var (
		mu    sync.Mutex
		seen  []RunStatus
		dones []int
	)
	opt := DefaultOptions()
	opt.Parallelism = 4
	opt.Progress = func(st RunStatus) {
		// Progress delivery is serialized by the runner; the extra lock
		// keeps the race detector honest about this test's own slices.
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, st)
		dones = append(dones, st.Done)
	}
	if _, err := RunAll(benches, opt); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(benches) {
		t.Fatalf("progress fired %d times, want %d", len(seen), len(benches))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done sequence %v not monotonically 1..n", dones)
		}
	}
	for _, st := range seen {
		if st.Err != nil || st.Result == nil {
			t.Errorf("%s: unexpected progress failure %v", st.Benchmark.Name(), st.Err)
		}
		if st.Total != len(benches) {
			t.Errorf("%s: total = %d, want %d", st.Benchmark.Name(), st.Total, len(benches))
		}
		if st.Result.Wall <= 0 {
			t.Errorf("%s: wall time not recorded", st.Benchmark.Name())
		}
		if st.Result.InstrsPerSec() <= 0 {
			t.Errorf("%s: instrs/sec not computable", st.Benchmark.Name())
		}
	}
}

// TestRunAllRace keeps the worker pool honest under the race detector
// (scripts/check.sh runs this package with -race): many small isolated
// runs, wide pool, progress callback exercised.
func TestRunAllRace(t *testing.T) {
	benches := smallSuite(12)
	opt := DefaultOptions()
	opt.Parallelism = 8
	opt.Progress = func(RunStatus) {}
	res, err := RunAll(benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(benches) {
		t.Fatalf("got %d results, want %d", len(res), len(benches))
	}
}

func TestRunRejectsNegativeMaxInstrs(t *testing.T) {
	cb, _ := testBenches(16)
	opt := DefaultOptions()
	opt.MaxInstrs = -1
	if _, err := Run(cb, opt); err == nil {
		t.Fatal("negative MaxInstrs must be rejected")
	}
}

// TestZeroPentiumConfigIsHonored pins the sentinel fix: an explicitly
// all-zero pentium.Config is an ablation (free emms, ISA-default latencies
// otherwise) and must not be silently upgraded to DefaultConfig.
func TestZeroPentiumConfigIsHonored(t *testing.T) {
	_, mb := testBenches(256) // the MMX version executes one emms
	def, err := Run(mb, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	zero := Options{Pentium: &pentium.Config{}}
	abl, err := Run(mb, zero)
	if err != nil {
		t.Fatal(err)
	}
	// With EmmsLatency 0 the measured region loses the full 50-cycle
	// MMX-to-FP switch; under the old sentinel both runs were identical.
	if abl.Report.Cycles >= def.Report.Cycles {
		t.Errorf("all-zero config cycles %d >= default %d; zero config was not honored",
			abl.Report.Cycles, def.Report.Cycles)
	}
	if diff := def.Report.Cycles - abl.Report.Cycles; diff < 40 {
		t.Errorf("emms ablation saved only %d cycles, want ~50", diff)
	}
}

func TestRunAllStats(t *testing.T) {
	benches := smallSuite(2)
	opt := DefaultOptions()
	res, err := RunAll(benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := Stats(res)
	if s.Programs != len(benches) {
		t.Errorf("Programs = %d, want %d", s.Programs, len(benches))
	}
	if s.Instructions == 0 || s.Cycles == 0 || s.WallSeconds <= 0 {
		t.Errorf("empty stats: %+v", s)
	}
	if s.InstrsPerSec() <= 0 {
		t.Error("aggregate throughput not computable")
	}
}

// TestRunAllContainsPanics: a benchmark whose Check panics fails its own
// run with a *PanicError, and the other runs on the pool still succeed.
func TestRunAllContainsPanics(t *testing.T) {
	benches := smallSuite(2)
	boom := benches[0]
	boom.Base = "boom"
	boom.Check = func(*vm.CPU) error { panic("check exploded") }
	benches = append(benches, boom)

	opt := DefaultOptions()
	opt.Parallelism = 2
	res, err := RunAll(benches, opt)
	var re *RunError
	if !errors.As(err, &re) || len(re.Failures) != 1 || re.Failures[0].Name != boom.Name() {
		t.Fatalf("want one failure for %s, got %v", boom.Name(), err)
	}
	var pe *PanicError
	if !errors.As(re.Failures[0].Err, &pe) {
		t.Fatalf("failure is %T, want *PanicError: %v", re.Failures[0].Err, re.Failures[0].Err)
	}
	if pe.Program != boom.Name() || pe.Value != "check exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {%q, %v, %d-byte stack}", pe.Program, pe.Value, len(pe.Stack))
	}
	if _, ok := res[boom.Name()]; ok {
		t.Error("the panicking run has a result")
	}
	if len(res) != len(benches)-1 {
		t.Errorf("%d results, want %d", len(res), len(benches)-1)
	}
}
