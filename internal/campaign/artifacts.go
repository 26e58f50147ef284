package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// Artifact rendering. The outputs deliberately contain no campaign IDs,
// timestamps or wall-clock measurements: two campaigns over the same grid
// — whether run sequentially on one backend or sharded across a fleet —
// render byte-identical artifacts, which the e2e suite asserts.

// dispatchLabel names the dispatch mode in artifacts ("" means auto).
func dispatchLabel(d string) string {
	if d == "" {
		return "auto"
	}
	return d
}

// renderArtifacts builds the points CSV and the sensitivity Markdown for
// a completed campaign. Only done points emit rows, in grid order.
func renderArtifacts(spec *Spec, points []PointState) (csv, markdown []byte) {
	return renderCSV(spec, points), renderMarkdown(spec, points)
}

// renderCSV emits one row per done point in grid order:
// program,dispatch,<axes...>,cycles,instructions,l1_misses,l2_misses.
func renderCSV(spec *Spec, points []PointState) []byte {
	var b bytes.Buffer
	b.WriteString("program,dispatch")
	for _, name := range spec.axisNames {
		b.WriteByte(',')
		b.WriteString(name)
	}
	b.WriteString(",cycles,instructions,l1_misses,l2_misses\n")
	for i := range points {
		p := &points[i]
		if p.Status != PointDone {
			continue
		}
		b.WriteString(p.Program)
		b.WriteByte(',')
		b.WriteString(dispatchLabel(p.Dispatch))
		for _, v := range p.Values {
			fmt.Fprintf(&b, ",%d", v)
		}
		fmt.Fprintf(&b, ",%d,%d,%d,%d\n", p.Cycles, p.Instrs, p.L1Misses, p.L2Misses)
	}
	return b.Bytes()
}

// renderMarkdown emits one sensitivity curve per (axis, program,
// dispatch): the points where every other axis sits at its baseline (its
// first listed value), tabulated as axis value → cycles plus the speedup
// relative to the axis's own first value. This is the Table-2 framing —
// relative performance under architectural variation — applied to each
// swept knob.
func renderMarkdown(spec *Spec, points []PointState) []byte {
	var b bytes.Buffer
	b.WriteString("# Sensitivity curves\n\n")
	fmt.Fprintf(&b, "Grid: %d points — %d program(s) × %d dispatch mode(s)",
		len(points), len(spec.Programs), spec.dispatchCount())
	for _, name := range spec.axisNames {
		fmt.Fprintf(&b, " × %s[%d]", name, len(spec.Axes[name]))
	}
	b.WriteString(".\n")

	if len(spec.axisNames) == 0 {
		// Degenerate grid (no axes): one flat table of program results.
		b.WriteString("\n| program | dispatch | cycles | instructions |\n|---|---|---:|---:|\n")
		for i := range points {
			p := &points[i]
			if p.Status != PointDone {
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %d |\n",
				p.Program, dispatchLabel(p.Dispatch), p.Cycles, p.Instrs)
		}
		return b.Bytes()
	}

	// index done points by (program, dispatch, values) for curve lookup.
	type cell struct{ cycles uint64 }
	index := make(map[string]cell, len(points))
	key := func(program, dispatch string, values []int) string {
		var k bytes.Buffer
		k.WriteString(program)
		k.WriteByte('|')
		k.WriteString(dispatch)
		for _, v := range values {
			fmt.Fprintf(&k, "|%d", v)
		}
		return k.String()
	}
	for i := range points {
		p := &points[i]
		if p.Status == PointDone {
			index[key(p.Program, p.Dispatch, p.Values)] = cell{cycles: p.Cycles}
		}
	}

	dispatch := spec.Dispatch
	if len(dispatch) == 0 {
		dispatch = []string{""}
	}
	for axis, name := range spec.axisNames {
		fmt.Fprintf(&b, "\n## Axis `%s`\n", name)
		if len(spec.axisNames) > 1 {
			b.WriteString("\nOther axes held at baseline:")
			first := true
			for j, other := range spec.axisNames {
				if j == axis {
					continue
				}
				if !first {
					b.WriteByte(',')
				}
				first = false
				fmt.Fprintf(&b, " %s=%d", other, spec.Axes[other][0])
			}
			b.WriteString(".\n")
		}
		for _, program := range spec.Programs {
			for _, mode := range dispatch {
				fmt.Fprintf(&b, "\n### %s (dispatch %s)\n\n", program, dispatchLabel(mode))
				fmt.Fprintf(&b, "| %s | cycles | speedup vs first |\n|---:|---:|---:|\n", name)
				// Baseline cell: this axis at its first value too.
				values := make([]int, len(spec.axisNames))
				for j, other := range spec.axisNames {
					values[j] = spec.Axes[other][0]
				}
				base, haveBase := index[key(program, mode, values)]
				for _, v := range spec.Axes[name] {
					values[axis] = v
					c, ok := index[key(program, mode, values)]
					if !ok {
						fmt.Fprintf(&b, "| %d | — | — |\n", v)
						continue
					}
					if haveBase && c.cycles > 0 {
						fmt.Fprintf(&b, "| %d | %d | %.3f |\n",
							v, c.cycles, float64(base.cycles)/float64(c.cycles))
					} else {
						fmt.Fprintf(&b, "| %d | %d | — |\n", v, c.cycles)
					}
				}
			}
		}
	}
	return b.Bytes()
}

// persist writes the campaign's artifacts under dir/<id>/ with the same
// atomic temp+rename discipline as the result-cache spill tier: readers
// never observe a torn file, and a crashed write leaves only a temp to be
// ignored.
func persist(dir, id string, csv, markdown []byte) error {
	cdir := filepath.Join(dir, id)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return fmt.Errorf("campaign: creating artifact dir: %w", err)
	}
	files := []struct {
		name string
		data []byte
	}{{"points.csv", csv}, {"sensitivity.md", markdown}}
	for _, f := range files {
		if err := atomicWrite(filepath.Join(cdir, f.name), f.data); err != nil {
			return err
		}
	}
	return nil
}

// atomicWrite lands data at path via a same-directory temp and rename.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".campaign-*")
	if err != nil {
		return fmt.Errorf("campaign: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("campaign: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("campaign: closing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("campaign: publishing %s: %w", path, err)
	}
	return nil
}
