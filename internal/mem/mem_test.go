package mem

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(4096)
	f := func(addrRaw uint16, v uint64) bool {
		addr := uint32(addrRaw) % 4000
		if !m.StoreU64(addr, v) {
			return false
		}
		got, ok := m.LoadU64(addr)
		if !ok || got != v {
			return false
		}
		lo32, _ := m.LoadU32(addr)
		hi32, _ := m.LoadU32(addr + 4)
		if uint64(lo32)|uint64(hi32)<<32 != v {
			return false
		}
		lo16, _ := m.LoadU16(addr)
		b0, _ := m.LoadU8(addr)
		return uint16(v) == lo16 && uint8(v) == b0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New(16)
	m.StoreU32(0, 0x0A0B0C0D)
	if b, _ := m.LoadU8(0); b != 0x0D {
		t.Errorf("byte 0 = %#x, want 0x0d", b)
	}
	if b, _ := m.LoadU8(3); b != 0x0A {
		t.Errorf("byte 3 = %#x, want 0x0a", b)
	}
}

func TestBoundsChecking(t *testing.T) {
	m := New(8)
	if _, ok := m.LoadU64(1); ok {
		t.Error("LoadU64(1) in 8-byte memory must fail (1+8 > 8)")
	}
	if _, ok := m.LoadU64(0); !ok {
		t.Error("LoadU64(0) must succeed")
	}
	if _, ok := m.LoadU32(5); ok {
		t.Error("LoadU32(5) must fail")
	}
	if m.StoreU16(7, 1) {
		t.Error("StoreU16(7) must fail")
	}
	if _, ok := m.LoadU8(8); ok {
		t.Error("LoadU8(8) must fail")
	}
	// Overflow-safe: addr near 2^32 must not wrap.
	if _, ok := m.LoadU32(0xFFFFFFFE); ok {
		t.Error("wrapping load must fail")
	}
}

func TestSliceHelpers(t *testing.T) {
	m := New(256)
	in := []int16{1, -1, 32767, -32768}
	if !m.WriteInt16s(8, in) {
		t.Fatal("WriteInt16s failed")
	}
	out, ok := m.ReadInt16s(8, 4)
	if !ok {
		t.Fatal("ReadInt16s failed")
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("int16[%d] = %d, want %d", i, out[i], in[i])
		}
	}
	d := []int32{1 << 30, -5}
	if !m.WriteInt32s(100, d) {
		t.Fatal("WriteInt32s failed")
	}
	dd, _ := m.ReadInt32s(100, 2)
	if dd[0] != d[0] || dd[1] != d[1] {
		t.Errorf("int32 round trip = %v", dd)
	}
	if m.WriteInt16s(254, in) {
		t.Error("out-of-range WriteInt16s must fail")
	}
	bs := []byte{9, 8, 7}
	m.WriteBytes(0, bs)
	got, _ := m.ReadBytes(0, 3)
	if got[0] != 9 || got[2] != 7 {
		t.Errorf("bytes round trip = %v", got)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(1024, 2, 32)
	if c.Access(0) {
		t.Error("first access must miss")
	}
	if !c.Access(0) {
		t.Error("second access must hit")
	}
	if !c.Access(31) {
		t.Error("same line must hit")
	}
	if c.Access(32) {
		t.Error("next line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 32-byte lines, 2 sets: set stride is 64 bytes.
	c := NewCache(128, 2, 32)
	a, b2, d := uint32(0), uint32(64), uint32(128) // all map to set 0
	c.Access(a)
	c.Access(b2)
	c.Access(d) // evicts a (LRU)
	if c.Access(a) {
		t.Error("a should have been evicted")
	}
	// a's reload evicted b2 (d was more recently used than b2).
	if !c.Access(d) {
		t.Error("d should still be resident")
	}
	if c.Access(b2) {
		t.Error("b2 should have been evicted by a's reload")
	}
}

func TestCacheWaysRespected(t *testing.T) {
	// 4-way: four distinct lines in one set must all be resident.
	c := NewCache(4*32*4, 4, 32) // 4 sets, 4 ways
	stride := uint32(4 * 32)
	for i := uint32(0); i < 4; i++ {
		c.Access(i * stride)
	}
	for i := uint32(0); i < 4; i++ {
		if !c.Access(i * stride) {
			t.Errorf("line %d evicted despite 4 ways", i)
		}
	}
}

func TestHierarchyPenalties(t *testing.T) {
	h := NewHierarchy()
	p := h.Pen
	// Cold access: L1 and L2 both miss.
	if got := h.Access(0); got != p.DCacheMiss+p.L2Access+p.L2Miss {
		t.Errorf("cold access penalty = %d", got)
	}
	// Warm: L1 hit.
	if got := h.Access(0); got != 0 {
		t.Errorf("warm access penalty = %d, want 0", got)
	}
	if h.Stats.Accesses != 2 || h.Stats.L1Misses != 1 || h.Stats.L2Misses != 1 {
		t.Errorf("stats = %+v", h.Stats)
	}
	// Evict from L1 but not L2: walk 5 lines mapping to one L1 set.
	h.Reset()
	if h.Stats.Accesses != 0 {
		t.Error("reset must clear stats")
	}
	l1Stride := uint32(16 * 1024 / 4) // L1 set span
	for i := uint32(0); i <= 4; i++ {
		h.Access(i * l1Stride)
	}
	// line 0 was evicted from L1 but 512KB L2 still holds it.
	if got := h.Access(0); got != p.DCacheMiss+p.L2Access {
		t.Errorf("L2-hit penalty = %d, want %d", got, p.DCacheMiss+p.L2Access)
	}
}

func TestNewCacheRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name                      string
		sizeBytes, ways, lineByte int
	}{
		{"zero ways", 1024, 0, 32},
		{"negative ways", 1024, -1, 32},
		{"non-pow2 line", 1024, 2, 24},
		{"zero line", 1024, 2, 0},
		{"one-byte line", 1024, 2, 1},
		{"non-pow2 size", 1000, 2, 32},
		{"zero sets", 64, 4, 32},
		{"ways not dividing", 1024, 3, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d, %d, %d) did not panic",
						tc.sizeBytes, tc.ways, tc.lineByte)
				}
			}()
			NewCache(tc.sizeBytes, tc.ways, tc.lineByte)
		})
	}
}

// refCache is a brutally simple reference model: per-set slices ordered
// most-recent-first, grown on demand. It validates that Cache's fixed
// recency-ordered ways and its front-way probe behave as plain LRU.
type refCache struct {
	lineShift uint32
	sets      uint32
	ways      int
	lines     [][]uint32
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	r := &refCache{ways: ways}
	for lineBytes > 1 {
		lineBytes >>= 1
		r.lineShift++
	}
	r.sets = uint32(sizeBytes / (ways * (1 << r.lineShift)))
	r.lines = make([][]uint32, r.sets)
	return r
}

func (r *refCache) access(addr uint32) bool {
	line := addr >> r.lineShift
	set := line & (r.sets - 1)
	s := r.lines[set]
	for i, l := range s {
		if l == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return true
		}
	}
	if len(s) < r.ways {
		s = append(s, 0)
	}
	copy(s[1:], s)
	s[0] = line
	r.lines[set] = s
	return false
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		c := NewCache(1024, ways, 32) // 32 to 4 sets
		r := newRefCache(1024, ways, 32)
		// Deterministic pseudo-random walk mixing re-references and conflicts.
		x := uint32(12345)
		for i := 0; i < 20000; i++ {
			x = x*1664525 + 1013904223
			addr := x % 4096 // 128 lines: heavy conflict traffic
			if got, want := c.Access(addr), r.access(addr); got != want {
				t.Fatalf("%d ways, access %d (addr %#x): Cache=%v ref=%v", ways, i, addr, got, want)
			}
		}
	}
}

func TestNilHierarchyIsPerfect(t *testing.T) {
	var h *Hierarchy
	if h.Access(1234) != 0 {
		t.Error("nil hierarchy must charge nothing")
	}
	h.Reset() // must not panic
}

// TestPriceMatchesAccess checks that Price and Charge leave a hierarchy in
// the state, with the statistics, that one Access per entry does, and that
// Price's penalties are Access's summed per instruction.
func TestPriceMatchesAccess(t *testing.T) {
	refs := make([]uint64, 0, 5000)
	x := uint32(777)
	for i := 0; i < cap(refs); i++ {
		x = x*1664525 + 1013904223
		r := uint64(x % 16384) // 512 lines: misses in both small levels
		if i > 0 && x>>30 == 0 {
			r |= Next
		}
		refs = append(refs, r)
	}
	small := func() *Hierarchy { return NewHierarchySized(1024, 2, 4096, 2, 32, DefaultPenalties()) }
	ref, priced, charged := small(), small(), small()
	var want []int32
	for _, r := range refs {
		p := int32(ref.Access(uint32(r)))
		if r&Next != 0 {
			want[len(want)-1] += p
		} else {
			want = append(want, p)
		}
	}
	// Price in uneven pieces, as the stream hands it regions.
	var got []int32
	for i := 0; i < len(refs); {
		j := min(len(refs), i+1+i%7)
		for j < len(refs) && refs[j]&Next != 0 {
			j++ // a piece never splits an instruction
		}
		got = priced.Price(refs[i:j], got)
		charged.Charge(refs[i:j])
		i = j
	}
	if len(got) != len(want) {
		t.Fatalf("Price gave %d penalties, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("penalty %d = %d, want %d", i, got[i], want[i])
		}
	}
	for name, h := range map[string]*Hierarchy{"Price": priced, "Charge": charged} {
		if h.Stats != ref.Stats {
			t.Errorf("%s stats %+v, want %+v", name, h.Stats, ref.Stats)
		}
		if ref.Stats.L2Misses == 0 || ref.Stats.L1Misses == ref.Stats.L2Misses {
			t.Fatalf("walk exercises too little: %+v", ref.Stats)
		}
		if !reflect.DeepEqual(*h.L1, *ref.L1) || !reflect.DeepEqual(*h.L2, *ref.L2) {
			t.Errorf("%s: cache state differs from Access's", name)
		}
	}
	var nilH *Hierarchy
	zero := nilH.Price(refs, nil)
	if len(zero) != len(want) {
		t.Errorf("nil hierarchy gave %d penalties, want %d", len(zero), len(want))
	}
	for _, p := range zero {
		if p != 0 {
			t.Fatal("nil hierarchy must charge nothing")
		}
	}
	nilH.Charge(refs) // must not panic
}
