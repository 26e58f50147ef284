package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, spec string) (*Spec, []Point) {
	t.Helper()
	s, points, err := ParseSpec([]byte(spec), DefaultLimits())
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", spec, err)
	}
	return s, points
}

func TestParseSpecExpandsDeterministically(t *testing.T) {
	const spec = `{
		"programs": ["fir.mmx", "fir.c"],
		"dispatch": ["block", "trace"],
		"axes": {"mul_latency": [1, 3], "l1_size": [8192, 16384]}
	}`
	s, points := mustParse(t, spec)

	// The dispatch names are not an axis: every name runs the one
	// interpreter, so the grid is programs × axes alone.
	if got := s.PointCount(); got != 8 {
		t.Fatalf("PointCount = %d, want 8", got)
	}
	if len(points) != 8 {
		t.Fatalf("expanded %d points, want 8", len(points))
	}
	// Axis order is sorted by name: l1_size before mul_latency.
	if order := s.AxisOrder(); order[0] != "l1_size" || order[1] != "mul_latency" {
		t.Fatalf("AxisOrder = %v, want [l1_size mul_latency]", order)
	}
	// First point: first program, first value of each axis.
	p0 := points[0]
	if p0.Program != "fir.mmx" || p0.Values[0] != 8192 || p0.Values[1] != 1 {
		t.Fatalf("point 0 = %+v", p0)
	}
	// The same grid without the dispatch list renders the same bodies.
	_, plain, err := ParseSpec([]byte(strings.Replace(spec, `"dispatch": ["block", "trace"],`, "", 1)), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if !bytes.Equal(points[i].Body, plain[i].Body) || bytes.Contains(points[i].Body, []byte("dispatch")) {
			t.Fatalf("point %d body %s, without the dispatch list %s", i, points[i].Body, plain[i].Body)
		}
	}
	// Expansion is deterministic: a second parse renders identical bodies.
	_, again, err := ParseSpec([]byte(spec), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if !bytes.Equal(points[i].Body, again[i].Body) {
			t.Fatalf("point %d body differs between identical parses:\n%s\n%s",
				i, points[i].Body, again[i].Body)
		}
		if points[i].Index != i {
			t.Fatalf("point %d carries Index %d", i, points[i].Index)
		}
	}
	// The alias renders to the canonical config field.
	if !bytes.Contains(p0.Body, []byte(`"mmx_mul_latency":1`)) {
		t.Fatalf("point body lacks aliased field: %s", p0.Body)
	}
	if !bytes.Contains(p0.Body, []byte(`"l1_size":8192`)) {
		t.Fatalf("point body lacks l1_size: %s", p0.Body)
	}
}

func TestParseSpecBodyRendersRunOptions(t *testing.T) {
	_, points := mustParse(t, `{
		"programs": ["fir.mmx"],
		"axes": {"disable_btb": [0, 1]},
		"max_instrs": 50000, "skip_check": true, "timeout_ms": 1000
	}`)
	if len(points) != 2 {
		t.Fatalf("expanded %d points, want 2", len(points))
	}
	body := string(points[1].Body)
	for _, want := range []string{`"disable_btb":true`, `"max_instrs":50000`, `"skip_check":true`, `"timeout_ms":1000`} {
		if !strings.Contains(body, want) {
			t.Errorf("body %s lacks %s", body, want)
		}
	}
	if got := string(points[0].Body); !strings.Contains(got, `"disable_btb":false`) {
		t.Errorf("bool axis value 0 should render false: %s", got)
	}
}

func TestParseSpecNoAxes(t *testing.T) {
	s, points := mustParse(t, `{"programs": ["fir.mmx"]}`)
	if len(points) != 1 || s.PointCount() != 1 {
		t.Fatalf("degenerate grid expanded to %d points", len(points))
	}
	if string(points[0].Body) != `{"program":"fir.mmx"}` {
		t.Fatalf("minimal body = %s", points[0].Body)
	}
}

func TestParseSpecRejections(t *testing.T) {
	lim := DefaultLimits()
	cases := []struct {
		name, spec, want string
	}{
		{"bad JSON", `{`, "invalid JSON"},
		{"unknown field", `{"programs":["a"],"bogus":1}`, "unknown field"},
		{"trailing data", `{"programs":["a"]}{}`, "trailing data"},
		{"no programs", `{}`, "programs"},
		{"empty program", `{"programs":[""]}`, "empty program"},
		{"duplicate program", `{"programs":["a","a"]}`, "duplicate program"},
		{"unknown dispatch", `{"programs":["a"],"dispatch":["warp"]}`, "unknown dispatch"},
		{"duplicate dispatch", `{"programs":["a"],"dispatch":["block","block"]}`, "duplicate dispatch"},
		{"unknown axis", `{"programs":["a"],"axes":{"warp_factor":[1]}}`, "unknown axis"},
		{"empty axis", `{"programs":["a"],"axes":{"l1_size":[]}}`, "no values"},
		{"axis out of range", `{"programs":["a"],"axes":{"l1_size":[12]}}`, "out of range"},
		{"axis zero ambiguity", `{"programs":["a"],"axes":{"mul_latency":[0]}}`, "out of range"},
		{"duplicate value", `{"programs":["a"],"axes":{"l1_size":[8192,8192]}}`, "repeats value"},
		{"alias collision", `{"programs":["a"],"axes":{"mul_latency":[1],"mmx_mul_latency":[2]}}`, "both drive"},
		{"bool out of range", `{"programs":["a"],"axes":{"disable_btb":[2]}}`, "out of range"},
		{"negative max_instrs", `{"programs":["a"],"max_instrs":-1}`, "max_instrs"},
		{"negative timeout", `{"programs":["a"],"timeout_ms":-1}`, "timeout_ms"},
		{"bad cache combo", `{"programs":["a"],"axes":{"l1_size":[1024],"l1_ways":[8],"line_bytes":[256]}}`, "invalid grid cell"},
		{"non-pow2 geometry", `{"programs":["a"],"axes":{"l1_size":[12288]}}`, "power of two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseSpec([]byte(tc.spec), lim)
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseSpecBoundsByMultiplication is the OOM guard: a grid whose
// expansion would be astronomically large must be rejected by counting,
// before any point is materialized.
func TestParseSpecBoundsByMultiplication(t *testing.T) {
	var axes []string
	for name, def := range axisCatalog {
		if name == "mul_latency" || def.kind == axisBool {
			continue // skip the alias and two-value axes
		}
		vals := make([]string, 0, 8)
		for v := def.min; v <= def.max && len(vals) < 8; v++ {
			vals = append(vals, fmt.Sprint(v))
		}
		axes = append(axes, fmt.Sprintf("%q:[%s]", name, strings.Join(vals, ",")))
		if len(axes) == 8 {
			break
		}
	}
	spec := fmt.Sprintf(`{"programs":["a"],"axes":{%s}}`, strings.Join(axes, ","))
	_, _, err := ParseSpec([]byte(spec), DefaultLimits())
	if err == nil || !strings.Contains(err.Error(), "points") {
		t.Fatalf("8^8-cell grid not rejected by the point ceiling: %v", err)
	}
}

func TestParseSpecLimits(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxBodyBytes = 32
	if _, _, err := ParseSpec([]byte(`{"programs":["a"],"axes":{"l1_size":[8192]}}`), lim); err == nil {
		t.Fatal("body over MaxBodyBytes accepted")
	}
	lim = DefaultLimits()
	lim.MaxPoints = 3
	_, _, err := ParseSpec([]byte(`{"programs":["a"],"axes":{"mul_latency":[1,2,3,4]}}`), lim)
	if err == nil || !strings.Contains(err.Error(), "points") {
		t.Fatalf("grid over MaxPoints accepted: %v", err)
	}
}

func TestAxisNamesSortedAndComplete(t *testing.T) {
	names := AxisNames()
	if len(names) != len(axisCatalog) {
		t.Fatalf("AxisNames returned %d names, catalog has %d", len(names), len(axisCatalog))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("AxisNames not sorted: %v", names)
		}
	}
}
