package mem

import "fmt"

// Cache is one level of a set-associative LRU cache. Only tags are modeled;
// data always comes from the flat memory image. The model exists to charge
// miss penalties and report reference statistics, which is exactly what
// VTune's Pentium model did.
type Cache struct {
	lineShift uint32
	setMask   uint32
	wayShift  uint32
	// tags[set<<wayShift:][:ways] holds one set's lines, each stored +1 so
	// that 0 marks an empty way, most recently used first: a hit moves its
	// line to the front and a fill evicts the last way, which is the least
	// recently used one or an empty one. Sequential code re-references the
	// same line heavily, so comparing the front way first resolves most
	// hits with one compare; Hierarchy.Access and Price probe it directly
	// for the L1.
	tags []uint32
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// CheckGeometry validates a cache geometry without building it: sizeBytes,
// lineBytes and the implied set count must be powers of two with at least
// one set, ways at least 1 (so a power of two too), and lines at least 2
// bytes, so that a stored line+1 never wraps to the empty mark.
// Request-driven configurations (ablation sweeps over cache geometry)
// validate here and answer 400 instead of letting NewCache panic the daemon.
func CheckGeometry(sizeBytes, ways, lineBytes int) error {
	if ways < 1 {
		return fmt.Errorf("cache ways must be >= 1, got %d", ways)
	}
	if !isPow2(lineBytes) || lineBytes < 2 {
		return fmt.Errorf("cache line bytes must be a power of two of at least 2, got %d", lineBytes)
	}
	if !isPow2(sizeBytes) {
		return fmt.Errorf("cache size must be a power of two, got %d", sizeBytes)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets < 1 || sets*ways*lineBytes != sizeBytes || !isPow2(sets) {
		return fmt.Errorf(
			"%d bytes / (%d ways * %d-byte lines) does not yield a power-of-two set count",
			sizeBytes, ways, lineBytes)
	}
	return nil
}

// NewCache builds a cache of sizeBytes capacity with the given associativity
// and line size. The geometry must be internally consistent — sizeBytes,
// lineBytes and the implied set count must be powers of two, with at least
// one set — or NewCache panics; a malformed cache would silently alias sets
// through the bit-mask indexing, which is far worse than failing loudly at
// construction.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if err := CheckGeometry(sizeBytes, ways, lineBytes); err != nil {
		panic("mem: NewCache: " + err.Error())
	}
	sets := sizeBytes / (ways * lineBytes)
	c := &Cache{tags: make([]uint32, sets*ways)}
	for lineBytes > 1 {
		lineBytes >>= 1
		c.lineShift++
	}
	for ways > 1 {
		ways >>= 1
		c.wayShift++
	}
	c.setMask = uint32(sets - 1)
	return c
}

// Access touches the line containing addr and reports whether it hit.
// On a miss the line is allocated, evicting the LRU way.
func (c *Cache) Access(addr uint32) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	if c.tags[set<<c.wayShift] == line+1 {
		return true
	}
	return c.accessSlow(line, set)
}

// accessSlow is the search and fill behind the front-way probe: it moves
// line to the front of its set and reports whether it was already there.
func (c *Cache) accessSlow(line, set uint32) bool {
	ways := c.tags[set<<c.wayShift:][:1<<c.wayShift]
	tag := line + 1
	w := 1
	for w < len(ways) && ways[w] != tag {
		w++
	}
	hit := w < len(ways)
	if !hit {
		w = len(ways) - 1
	}
	copy(ways[1:w+1], ways[:w])
	ways[0] = tag
	return hit
}

// Reset invalidates every line.
func (c *Cache) Reset() {
	clear(c.tags)
}

// Penalties configures the extra cycles charged per access outcome. The
// defaults follow the paper's quoted Pentium figures, interpreted
// additively: an L1 miss pays the data-cache-miss detection cost plus the
// L2 access; an L2 miss additionally pays the off-chip cost.
type Penalties struct {
	DCacheMiss int // charged on any L1 miss ("three cycles for a data cache miss")
	L2Access   int // additionally charged when the line comes from L2 ("8 cycles for an L2 access")
	L2Miss     int // additionally charged when L2 also misses ("15 cycles for an L2 miss")
}

// DefaultPenalties returns the paper's Pentium penalties.
func DefaultPenalties() Penalties { return Penalties{DCacheMiss: 3, L2Access: 8, L2Miss: 15} }

// HierarchyStats accumulates reference counts.
type HierarchyStats struct {
	Accesses uint64
	L1Misses uint64
	L2Misses uint64
}

// Hierarchy is the L1-data + unified-L2 cache pair with penalty accounting.
// A nil *Hierarchy is valid and models a perfect (always-hit) memory system,
// which the ablation benchmarks use.
type Hierarchy struct {
	L1, L2 *Cache
	Pen    Penalties
	Stats  HierarchyStats
}

// NewHierarchy builds the default Pentium-with-MMX hierarchy:
// 16 KB 4-way L1 data cache and 512 KB 4-way L2, 32-byte lines.
func NewHierarchy() *Hierarchy {
	return NewHierarchySized(16*1024, 4, 512*1024, 4, 32, DefaultPenalties())
}

// NewHierarchySized builds a hierarchy with explicit geometry and
// penalties — the ablation-sweep entry point. Both levels share one line
// size, matching the Pentium. Geometry must already satisfy CheckGeometry
// for both levels (NewCache panics otherwise).
func NewHierarchySized(l1Size, l1Ways, l2Size, l2Ways, lineBytes int, pen Penalties) *Hierarchy {
	return &Hierarchy{
		L1:  NewCache(l1Size, l1Ways, lineBytes),
		L2:  NewCache(l2Size, l2Ways, lineBytes),
		Pen: pen,
	}
}

// Access models one data reference to addr and returns the extra cycles to
// charge beyond the instruction's base latency. The L1 front-way probe is
// open-coded here so the overwhelmingly common hit resolves with a single
// compare and no further call.
func (h *Hierarchy) Access(addr uint32) int {
	if h == nil {
		return 0
	}
	h.Stats.Accesses++
	l1 := h.L1
	line := addr >> l1.lineShift
	set := line & l1.setMask
	if l1.tags[set<<l1.wayShift] == line+1 {
		return 0
	}
	return h.hierSlow(addr, line, set)
}

// Next marks an entry of a reference trace as a further data reference of
// the instruction whose reference precedes it (the store half of a
// read-modify-write, say). A reference trace lists effective addresses in
// reference order, one uint64 each, so every 32-bit address stays
// representable beside the mark.
const Next = 1 << 32

// Price charges a reference trace in order, exactly as one Access per
// entry would, and appends its penalties to pen: one per instruction, a
// marked entry's adding to its instruction's. It counts the trace's
// accesses once and keeps the L1 probe's fields in registers, so a hit
// costs one compare.
func (h *Hierarchy) Price(refs []uint64, pen []int32) []int32 {
	if h == nil {
		for _, r := range refs {
			if r&Next == 0 {
				pen = append(pen, 0)
			}
		}
		return pen
	}
	h.Stats.Accesses += uint64(len(refs))
	shift, mask, ways, tags := h.L1.lineShift, h.L1.setMask, h.L1.wayShift, h.L1.tags
	for _, r := range refs {
		addr := uint32(r)
		line := addr >> shift
		set := line & mask
		var p int32
		if tags[set<<ways] != line+1 {
			p = int32(h.hierSlow(addr, line, set))
		}
		if r&Next != 0 {
			pen[len(pen)-1] += p
		} else {
			pen = append(pen, p)
		}
	}
	return pen
}

// Charge charges a reference trace in order for the hierarchy's state and
// statistics alone, as Price does without the penalties.
func (h *Hierarchy) Charge(refs []uint64) {
	if h == nil {
		return
	}
	h.Stats.Accesses += uint64(len(refs))
	shift, mask, ways, tags := h.L1.lineShift, h.L1.setMask, h.L1.wayShift, h.L1.tags
	for _, r := range refs {
		addr := uint32(r)
		line := addr >> shift
		set := line & mask
		if tags[set<<ways] != line+1 {
			h.hierSlow(addr, line, set)
		}
	}
}

// hierSlow finishes an access that missed the L1 front-way probe.
func (h *Hierarchy) hierSlow(addr, line, set uint32) int {
	if h.L1.accessSlow(line, set) {
		return 0
	}
	h.Stats.L1Misses++
	extra := h.Pen.DCacheMiss + h.Pen.L2Access
	if !h.L2.Access(addr) {
		h.Stats.L2Misses++
		extra += h.Pen.L2Miss
	}
	return extra
}

// Reset clears both cache levels and the statistics.
func (h *Hierarchy) Reset() {
	if h == nil {
		return
	}
	h.L1.Reset()
	h.L2.Reset()
	h.Stats = HierarchyStats{}
}
