// Cache-model ablation: a request-level description of the memory
// hierarchy the timing model charges penalties against. The paper's
// evaluation fixes the Pentium's 16 KB 4-way L1 / 512 KB 4-way L2 with
// 32-byte lines; sensitivity campaigns sweep these knobs instead, so the
// spec validates to an error (never a panic) — adversarial grids must die
// as 400s at the service boundary.
package core

import (
	"fmt"

	"mmxdsp/internal/mem"
)

// Cache geometry bounds for request-driven configurations. The ceilings
// keep a single point's tag arrays small (an L2 at the cap models 64 MB
// with ~2M tag entries) so a hostile sweep cannot balloon daemon memory.
const (
	MinCacheSize  = 1 << 10 // 1 KB
	MaxL1Size     = 1 << 22 // 4 MB
	MaxL2Size     = 1 << 26 // 64 MB
	MaxCacheWays  = 16
	MinLineBytes  = 8
	MaxLineBytes  = 256
	MaxPenalty    = 1000
	defaultL1Size = 16 * 1024
	defaultL1Ways = 4
	defaultL2Size = 512 * 1024
	defaultL2Ways = 4
	defaultLine   = 32
)

// CacheSpec overrides the memory-hierarchy model per run. Zero geometry
// fields select the Pentium defaults (16 KB 4-way L1, 512 KB 4-way L2,
// 32-byte lines); penalty fields follow the EmmsLatency convention —
// negative keeps the paper's value, zero and up overrides (zero models a
// free miss, a meaningful ablation).
type CacheSpec struct {
	L1Size, L1Ways int
	L2Size, L2Ways int
	LineBytes      int
	// DCacheMiss, L2Access, L2Miss override mem.Penalties; -1 = default.
	DCacheMiss, L2Access, L2Miss int
}

// DefaultCacheSpec returns the spec that reproduces NewHierarchy exactly.
func DefaultCacheSpec() CacheSpec {
	return CacheSpec{DCacheMiss: -1, L2Access: -1, L2Miss: -1}
}

// effective fills defaults into the zero fields.
func (s CacheSpec) effective() (l1Size, l1Ways, l2Size, l2Ways, line int, pen mem.Penalties) {
	l1Size, l1Ways = s.L1Size, s.L1Ways
	l2Size, l2Ways = s.L2Size, s.L2Ways
	line = s.LineBytes
	if l1Size == 0 {
		l1Size = defaultL1Size
	}
	if l1Ways == 0 {
		l1Ways = defaultL1Ways
	}
	if l2Size == 0 {
		l2Size = defaultL2Size
	}
	if l2Ways == 0 {
		l2Ways = defaultL2Ways
	}
	if line == 0 {
		line = defaultLine
	}
	pen = mem.DefaultPenalties()
	if s.DCacheMiss >= 0 {
		pen.DCacheMiss = s.DCacheMiss
	}
	if s.L2Access >= 0 {
		pen.L2Access = s.L2Access
	}
	if s.L2Miss >= 0 {
		pen.L2Miss = s.L2Miss
	}
	return
}

// Validate range- and geometry-checks the spec (defaults applied first, so
// partial overrides are checked against what will actually be built).
func (s CacheSpec) Validate() error {
	l1Size, l1Ways, l2Size, l2Ways, line, pen := s.effective()
	if l1Size < MinCacheSize || l1Size > MaxL1Size {
		return fmt.Errorf("l1_size %d out of range [%d, %d]", l1Size, MinCacheSize, MaxL1Size)
	}
	if l2Size < MinCacheSize || l2Size > MaxL2Size {
		return fmt.Errorf("l2_size %d out of range [%d, %d]", l2Size, MinCacheSize, MaxL2Size)
	}
	if l1Ways < 1 || l1Ways > MaxCacheWays {
		return fmt.Errorf("l1_ways %d out of range [1, %d]", l1Ways, MaxCacheWays)
	}
	if l2Ways < 1 || l2Ways > MaxCacheWays {
		return fmt.Errorf("l2_ways %d out of range [1, %d]", l2Ways, MaxCacheWays)
	}
	if line < MinLineBytes || line > MaxLineBytes {
		return fmt.Errorf("line_bytes %d out of range [%d, %d]", line, MinLineBytes, MaxLineBytes)
	}
	if err := mem.CheckGeometry(l1Size, l1Ways, line); err != nil {
		return fmt.Errorf("l1 geometry: %w", err)
	}
	if err := mem.CheckGeometry(l2Size, l2Ways, line); err != nil {
		return fmt.Errorf("l2 geometry: %w", err)
	}
	if l2Size < l1Size {
		return fmt.Errorf("l2_size %d smaller than l1_size %d", l2Size, l1Size)
	}
	for _, p := range []struct {
		name string
		v    int
	}{{"dcache_miss_penalty", pen.DCacheMiss}, {"l2_access_penalty", pen.L2Access}, {"l2_miss_penalty", pen.L2Miss}} {
		if p.v < 0 || p.v > MaxPenalty {
			return fmt.Errorf("%s %d out of range [0, %d]", p.name, p.v, MaxPenalty)
		}
	}
	return nil
}

// Hierarchy builds the validated hierarchy the run charges penalties
// against.
func (s CacheSpec) Hierarchy() (*mem.Hierarchy, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l1Size, l1Ways, l2Size, l2Ways, line, pen := s.effective()
	return mem.NewHierarchySized(l1Size, l1Ways, l2Size, l2Ways, line, pen), nil
}

// Key renders the canonical cache-key component for the spec: effective
// values after default-filling, so an explicit default (l1_size=16384) and
// an omitted field produce the same key — they produce the same results.
func (s CacheSpec) Key() string {
	l1Size, l1Ways, l2Size, l2Ways, line, pen := s.effective()
	return fmt.Sprintf("l1=%d/%d|l2=%d/%d|lb=%d|dm=%d|la=%d|lm=%d",
		l1Size, l1Ways, l2Size, l2Ways, line,
		pen.DCacheMiss, pen.L2Access, pen.L2Miss)
}
