package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

func TestSeedDeterminesRequests(t *testing.T) {
	batches := func(seed int64) [][]op {
		g := newServeGen(seed, 84, 16)
		return [][]op{g.batch(), g.batch()}
	}
	if a, b := batches(7), batches(7); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if a, b := batches(7), batches(8); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same request sequence")
	}
	if a, b := batches(7), batches(7); reflect.DeepEqual(a[0], b[1]) {
		t.Fatal("consecutive batches of one seed are identical")
	}

	grid := func(seed int64) []byte {
		spec, err := campaignSpec(suite.Names(), campaignPenalty(seed))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	if a, b := grid(7), grid(7); !bytes.Equal(a, b) {
		t.Fatal("same seed gave different campaign grids")
	}
	if a, b := grid(7), grid(8); bytes.Equal(a, b) {
		t.Fatal("different seeds gave the same campaign grid")
	}
	for seed := int64(0); seed < 1000; seed++ {
		if p := campaignPenalty(seed); p < 16 || p > core.MaxPenalty {
			t.Fatalf("seed %d: penalty %d out of range", seed, p)
		}
	}
}

func TestBatchComposition(t *testing.T) {
	ops := newServeGen(3, 84, 16).batch()
	n := map[opKind]int{}
	asm := map[int]int{}
	for _, x := range ops {
		n[x.Kind]++
		if x.Kind == opAsm {
			asm[x.Key]++
		}
	}
	if n[opRun] != batchUnits*unitRuns || n[opReval] != batchUnits*unitRevals || n[opAsm] != batchUnits*16 {
		t.Fatalf("batch composition %v", n)
	}
	for i := 0; i < 16; i++ {
		if asm[i] != batchUnits {
			t.Fatalf("listing %d sent %d times per batch, want %d", i, asm[i], batchUnits)
		}
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(lo, hi int64) span { return span{Start: lo, End: hi} }
	cases := []struct {
		name              string
		parents, children []span
		want              int64
	}{
		{"no children", []span{sp(0, 100)}, nil, 100},
		{"one child", []span{sp(0, 100)}, []span{sp(10, 30)}, 80},
		{"overlapping children count once", []span{sp(0, 100)}, []span{sp(10, 30), sp(20, 40)}, 70},
		{"nested child inside child", []span{sp(0, 100)}, []span{sp(10, 60), sp(20, 30)}, 50},
		{"child sticking out", []span{sp(0, 100)}, []span{sp(90, 120)}, 90},
		{"two parents and a gap", []span{sp(0, 50), sp(60, 100)}, []span{sp(40, 70)}, 70},
		{"child outside", []span{sp(0, 10)}, []span{sp(20, 30)}, 10},
	}
	for _, c := range cases {
		if got := selfTime(c.parents, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuantileMatchesInclusiveRule(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q1 %v, want 2", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Fatalf("q0.9 %v, want 4.6", q)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Fatalf("median %v, want 2.5", m)
	}
}

// TestDigestGate runs the suite once: the pinned digest must match, and a
// report corrupted in one field must fail the gate.
func TestDigestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite")
	}
	comps, err := compileAll(suite.All())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Dispatch = core.DispatchTrace
	var results []*core.Result
	for _, c := range comps {
		r, err := core.RunCompiled(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if err := checkDigest(results, suiteDigest); err != nil {
		t.Fatalf("pinned digest: %v", err)
	}
	bad := *results[3].Report
	bad.Cycles++
	results[3] = &core.Result{Benchmark: results[3].Benchmark, Report: &bad}
	if err := checkDigest(results, suiteDigest); err == nil {
		t.Fatal("a corrupted report passed the digest gate")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(want[i].name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", want[i].name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", wl, len(workloads))
	}
}

func TestScale(t *testing.T) {
	if k := scale(refNominal, refNominal); k != 1 {
		t.Fatalf("scale at nominal speed %v, want 1", k)
	}
	if k := scale(2*refNominal, 2*refNominal); k != 0.5 {
		t.Fatalf("scale at half speed %v, want 0.5", k)
	}
	if d := newHostRef().run(); d <= 0 {
		t.Fatalf("reference pass took %v", d)
	}
}

func TestClosedLoopVisitsEachOpOnce(t *testing.T) {
	const n = 1000
	seen := make([]int, n)
	closedLoop(n, func(i int) { seen[i]++ })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("op %d ran %d times", i, c)
		}
	}
}
