// Package campaign implements declarative ablation-sweep campaigns: one
// request declares a grid — programs × ablation axes —
// that the service expands into (program, config) points, executes through
// the tier's own /run machinery (result cache, admission, routing), and
// summarizes as sensitivity-curve artifacts. The package is tier-neutral:
// it knows how to parse, bound, expand, schedule and report a grid, while
// mmxd and mmxfleet supply the Executor that actually runs one point.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"mmxdsp/internal/core"
)

// Limits bounds a grid before it is materialized. Counting happens on the
// axis lengths alone — a hostile spec is rejected by multiplication, never
// by allocation, so adversarial grids cannot balloon memory.
type Limits struct {
	MaxBodyBytes     int // spec JSON size cap
	MaxPoints        int // expanded grid ceiling
	MaxAxes          int
	MaxValuesPerAxis int
	MaxPrograms      int
}

// DefaultLimits returns the service defaults: grids up to 4096 points.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes:     256 << 10,
		MaxPoints:        4096,
		MaxAxes:          8,
		MaxValuesPerAxis: 64,
		MaxPrograms:      64,
	}
}

// axisKind distinguishes how an axis value renders into the /run config.
type axisKind int

const (
	axisInt  axisKind = iota // plain integer field
	axisBool                 // values restricted to {0, 1}, rendered as bool
)

// axisDef describes one sweepable knob: the ConfigOverride JSON field it
// drives and the accepted value range. Ranges match the /run validator so
// every expanded point is a request the daemon would accept.
type axisDef struct {
	field    string
	kind     axisKind
	min, max int
}

// axisCatalog maps spec axis names onto /run config fields. Names equal
// the ConfigOverride JSON tags; "mul_latency" is a paper-friendly alias
// for mmx_mul_latency. mispredict_penalty and mmx_mul_latency exclude 0
// because the zero value means "default" in the override encoding — a
// sweep that silently re-ran the default would corrupt the curve.
var axisCatalog = map[string]axisDef{
	"mispredict_penalty":  {field: "mispredict_penalty", min: 1, max: 1000},
	"emms_latency":        {field: "emms_latency", min: 0, max: 10000},
	"mmx_mul_latency":     {field: "mmx_mul_latency", min: 1, max: 10000},
	"mul_latency":         {field: "mmx_mul_latency", min: 1, max: 10000},
	"disable_pairing":     {field: "disable_pairing", kind: axisBool, max: 1},
	"disable_btb":         {field: "disable_btb", kind: axisBool, max: 1},
	"perfect_cache":       {field: "perfect_cache", kind: axisBool, max: 1},
	"l1_size":             {field: "l1_size", min: core.MinCacheSize, max: core.MaxL1Size},
	"l1_ways":             {field: "l1_ways", min: 1, max: core.MaxCacheWays},
	"l2_size":             {field: "l2_size", min: core.MinCacheSize, max: core.MaxL2Size},
	"l2_ways":             {field: "l2_ways", min: 1, max: core.MaxCacheWays},
	"line_bytes":          {field: "line_bytes", min: core.MinLineBytes, max: core.MaxLineBytes},
	"dcache_miss_penalty": {field: "dcache_miss_penalty", min: 0, max: core.MaxPenalty},
	"l2_access_penalty":   {field: "l2_access_penalty", min: 0, max: core.MaxPenalty},
	"l2_miss_penalty":     {field: "l2_miss_penalty", min: 0, max: core.MaxPenalty},
}

// AxisNames returns the sweepable axis names, sorted, for error messages
// and documentation.
func AxisNames() []string {
	names := make([]string, 0, len(axisCatalog))
	for n := range axisCatalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Spec is the JSON body of POST /campaign.
type Spec struct {
	// Programs lists paper-style program names; each is swept over the
	// full grid. Existence is checked by the tier against its registry.
	Programs []string `json:"programs"`
	// Dispatch lists dispatch names, each checked by core.CheckDispatch.
	// Every name runs the one interpreter, so the list is not an axis: a
	// spec expands to the same points with or without it.
	Dispatch []string `json:"dispatch,omitempty"`
	// Axes maps axis names (see AxisNames) to the values to sweep.
	Axes map[string][]int `json:"axes,omitempty"`
	// MaxInstrs / SkipCheck / TimeoutMS apply to every point, with /run
	// semantics.
	MaxInstrs int64 `json:"max_instrs,omitempty"`
	SkipCheck bool  `json:"skip_check,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// axisNames is the sorted axis order every expansion and artifact
	// uses; fixed at parse time so output is deterministic.
	axisNames []string
}

// AxisOrder returns the canonical (sorted) axis order for the spec.
func (s *Spec) AxisOrder() []string { return s.axisNames }

// Point is one (program, config) cell of the expanded grid.
type Point struct {
	Index   int
	Program string
	// Values holds one value per Spec.AxisOrder entry.
	Values []int
	// Body is the canonical /run request JSON for this point. Key order
	// is deterministic (json.Marshal sorts map keys), so the same cell
	// always renders the same bytes — and therefore the same cache key —
	// on every tier.
	Body []byte
}

// ParseSpec decodes, validates, bounds and expands a campaign grid. The
// returned points are fully rendered /run bodies in deterministic order:
// programs × the cartesian product of axes in sorted-name order. Any
// error is a client error (the tiers answer 400).
func ParseSpec(data []byte, lim Limits) (*Spec, []Point, error) {
	if lim.MaxBodyBytes > 0 && len(data) > lim.MaxBodyBytes {
		return nil, nil, fmt.Errorf("campaign spec exceeds %d bytes", lim.MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return nil, nil, fmt.Errorf("trailing data after campaign spec")
	}
	if err := spec.validate(lim); err != nil {
		return nil, nil, err
	}
	points, err := spec.expand()
	if err != nil {
		return nil, nil, err
	}
	return &spec, points, nil
}

// validate bounds and range-checks the spec without materializing points.
func (s *Spec) validate(lim Limits) error {
	if len(s.Programs) == 0 {
		return fmt.Errorf("missing required field %q", "programs")
	}
	if len(s.Programs) > lim.MaxPrograms {
		return fmt.Errorf("%d programs exceeds limit %d", len(s.Programs), lim.MaxPrograms)
	}
	seenProg := make(map[string]bool, len(s.Programs))
	for _, p := range s.Programs {
		if p == "" {
			return fmt.Errorf("empty program name")
		}
		if seenProg[p] {
			return fmt.Errorf("duplicate program %q", p)
		}
		seenProg[p] = true
	}
	seenDisp := make(map[string]bool, len(s.Dispatch))
	for _, d := range s.Dispatch {
		if err := core.CheckDispatch(d); err != nil {
			return err
		}
		if seenDisp[d] {
			return fmt.Errorf("duplicate dispatch mode %q", d)
		}
		seenDisp[d] = true
	}
	if len(s.Axes) > lim.MaxAxes {
		return fmt.Errorf("%d axes exceeds limit %d", len(s.Axes), lim.MaxAxes)
	}
	if s.MaxInstrs < 0 {
		return fmt.Errorf("negative max_instrs %d", s.MaxInstrs)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", s.TimeoutMS)
	}
	// Canonicalize axis names: alias resolution must not create duplicate
	// config fields (mul_latency + mmx_mul_latency drive the same knob).
	fields := make(map[string]string, len(s.Axes))
	s.axisNames = make([]string, 0, len(s.Axes))
	for name, values := range s.Axes {
		def, ok := axisCatalog[name]
		if !ok {
			return fmt.Errorf("unknown axis %q (known: %v)", name, AxisNames())
		}
		if prev, dup := fields[def.field]; dup {
			return fmt.Errorf("axes %q and %q both drive config field %q", prev, name, def.field)
		}
		fields[def.field] = name
		if len(values) == 0 {
			return fmt.Errorf("axis %q has no values", name)
		}
		if len(values) > lim.MaxValuesPerAxis {
			return fmt.Errorf("axis %q has %d values, limit %d", name, len(values), lim.MaxValuesPerAxis)
		}
		seen := make(map[int]bool, len(values))
		for _, v := range values {
			if v < def.min || v > def.max {
				return fmt.Errorf("axis %q value %d out of range [%d, %d]", name, v, def.min, def.max)
			}
			if seen[v] {
				return fmt.Errorf("axis %q repeats value %d", name, v)
			}
			seen[v] = true
		}
		s.axisNames = append(s.axisNames, name)
	}
	sort.Strings(s.axisNames)
	// Count before materializing: a grid over the point ceiling dies here
	// by multiplication, never by allocation.
	count := len(s.Programs)
	for _, name := range s.axisNames {
		n := len(s.Axes[name])
		if count > lim.MaxPoints/n {
			return fmt.Errorf("grid exceeds %d points", lim.MaxPoints)
		}
		count *= n
	}
	if count > lim.MaxPoints {
		return fmt.Errorf("grid expands to %d points, limit %d", count, lim.MaxPoints)
	}
	return nil
}

// PointCount returns the expanded grid size.
func (s *Spec) PointCount() int {
	count := len(s.Programs)
	for _, name := range s.axisNames {
		count *= len(s.Axes[name])
	}
	return count
}

// expand materializes the grid in deterministic order and renders each
// point's /run body. Cache-geometry combinations are cross-validated here
// (e.g. l1_size 1024 × line_bytes 256 cannot form a power-of-two set
// count), so an invalid cell rejects the whole campaign up front instead
// of failing points mid-run.
func (s *Spec) expand() ([]Point, error) {
	points := make([]Point, 0, s.PointCount())
	values := make([]int, len(s.axisNames))
	var rec func(axis int) error
	var program string
	rec = func(axis int) error {
		if axis == len(s.axisNames) {
			p := Point{
				Index:   len(points),
				Program: program,
				Values:  append([]int(nil), values...),
			}
			if err := s.checkCacheCombo(p.Values); err != nil {
				return err
			}
			body, err := s.renderBody(p)
			if err != nil {
				return err
			}
			p.Body = body
			points = append(points, p)
			return nil
		}
		for _, v := range s.Axes[s.axisNames[axis]] {
			values[axis] = v
			if err := rec(axis + 1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, program = range s.Programs {
		if err := rec(0); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// checkCacheCombo validates the cache geometry implied by one cell. The
// per-axis range check already passed; this catches cross-axis conflicts.
func (s *Spec) checkCacheCombo(values []int) error {
	spec := core.DefaultCacheSpec()
	touched := false
	for i, name := range s.axisNames {
		v := values[i]
		switch axisCatalog[name].field {
		case "l1_size":
			spec.L1Size, touched = v, true
		case "l1_ways":
			spec.L1Ways, touched = v, true
		case "l2_size":
			spec.L2Size, touched = v, true
		case "l2_ways":
			spec.L2Ways, touched = v, true
		case "line_bytes":
			spec.LineBytes, touched = v, true
		case "dcache_miss_penalty":
			spec.DCacheMiss, touched = v, true
		case "l2_access_penalty":
			spec.L2Access, touched = v, true
		case "l2_miss_penalty":
			spec.L2Miss, touched = v, true
		}
	}
	if !touched {
		return nil
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("invalid grid cell %s: %w", s.comboString(values), err)
	}
	return nil
}

// comboString renders one cell's axis assignment for error messages.
func (s *Spec) comboString(values []int) string {
	var b bytes.Buffer
	for i, name := range s.axisNames {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", name, values[i])
	}
	return "{" + b.String() + "}"
}

// renderBody builds the canonical /run JSON body for one cell.
func (s *Spec) renderBody(p Point) ([]byte, error) {
	cfg := make(map[string]any, len(s.axisNames))
	for i, name := range s.axisNames {
		def := axisCatalog[name]
		if def.kind == axisBool {
			cfg[def.field] = p.Values[i] != 0
		} else {
			cfg[def.field] = p.Values[i]
		}
	}
	body := map[string]any{"program": p.Program}
	if len(cfg) > 0 {
		body["config"] = cfg
	}
	if s.MaxInstrs > 0 {
		body["max_instrs"] = s.MaxInstrs
	}
	if s.SkipCheck {
		body["skip_check"] = true
	}
	if s.TimeoutMS > 0 {
		body["timeout_ms"] = s.TimeoutMS
	}
	return json.Marshal(body)
}
