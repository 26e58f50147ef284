// Package asm is a macro-assembler for the simulated ISA. Go is the macro
// language: benchmark programs and library routines are Go functions that
// drive a Builder, emitting labeled instructions and data, and Link resolves
// labels and data symbols into a Program the virtual machine executes.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mmxdsp/internal/isa"
)

// Memory layout constants. The data segment starts at DataBase; the stack
// occupies the top StackSize bytes of the image and grows down.
const (
	DataBase  = 0x10000
	StackSize = 0x10000
	// stackGuard keeps a small red zone below the initial stack pointer.
	stackGuard = 16
)

// Program is a linked, executable image.
type Program struct {
	Name    string
	Insts   []isa.Inst
	Entry   int
	Labels  map[string]int
	Symbols map[string]uint32 // data and bss symbols -> absolute addresses
	Data    []byte            // initialized data, loaded at DataBase
	BSSSize uint32            // zero-initialized space following Data
	MemSize uint32            // total memory image size
	// Procs maps instruction ranges to procedure names for profiler
	// attribution, sorted by Start.
	Procs []ProcInfo
	// Meta is the per-PC static instruction metadata (isa.ProgramMeta),
	// computed once at link time so the timing model and profiler index it
	// instead of re-deriving per retired event.
	Meta []isa.InstMeta
	// blocks is the memoized basic-block partition (see Blocks).
	blocks []BlockInfo
}

// InstMeta returns the per-PC static metadata table, computing it on demand
// for programs constructed without Link (e.g. struct literals in tests).
func (p *Program) InstMeta() []isa.InstMeta {
	if p.Meta == nil {
		p.Meta = isa.ProgramMeta(p.Insts)
	}
	return p.Meta
}

// ProcInfo records that instructions [Start, End) belong to procedure Name.
type ProcInfo struct {
	Name  string
	Start int
	End   int
}

// StackTop returns the initial stack pointer.
func (p *Program) StackTop() uint32 { return p.MemSize - stackGuard }

// Addr returns the absolute address of a data symbol, panicking if the
// symbol is unknown (programs are constructed by trusted Go code; a missing
// symbol is a programming error caught by tests).
func (p *Program) Addr(sym string) uint32 {
	a, ok := p.Symbols[sym]
	if !ok {
		panic(fmt.Sprintf("asm: program %s has no symbol %q", p.Name, sym))
	}
	return a
}

// ProcAt returns the name of the procedure containing instruction index pc,
// or "" if none.
func (p *Program) ProcAt(pc int) string {
	i := sort.Search(len(p.Procs), func(i int) bool { return p.Procs[i].Start > pc })
	if i == 0 {
		return ""
	}
	pr := p.Procs[i-1]
	if pc < pr.End {
		return pr.Name
	}
	return ""
}

// Listing renders a human-readable disassembly with interleaved labels.
func (p *Program) Listing() string {
	byIndex := map[int][]string{}
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s: %d instructions, %d data bytes, %d bss bytes\n",
		p.Name, len(p.Insts), len(p.Data), p.BSSSize)
	for i, in := range p.Insts {
		labels := byIndex[i]
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%6d    %s\n", i, in.String())
	}
	// Labels may point one past the last instruction (end labels); keep
	// them so the listing is a complete serialization of the code.
	trailing := byIndex[len(p.Insts)]
	sort.Strings(trailing)
	for _, l := range trailing {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	return b.String()
}

// Builder accumulates instructions, labels and data, then links them into a
// Program.
type Builder struct {
	name    string
	insts   []isa.Inst
	labels  map[string]int
	data    []byte
	symbols map[string]uint32 // relative to DataBase during building
	bss     []bssEntry
	procs   []ProcInfo
	entry   int
	errs    []error
}

type bssEntry struct {
	name string
	size uint32
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  map[string]int{},
		symbols: map[string]uint32{},
	}
}

// errorf records a build error; Link reports the first one.
func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("asm(%s): "+format, append([]any{b.name}, args...)...))
}

// PC returns the index the next instruction will occupy.
func (b *Builder) PC() int { return len(b.insts) }

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errorf("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.insts)
}

// Proc starts a procedure: it defines a label and opens a procedure extent
// for profiler attribution. The extent closes at the next Proc or at Link.
func (b *Builder) Proc(name string) {
	b.closeProc()
	b.Label(name)
	b.procs = append(b.procs, ProcInfo{Name: name, Start: len(b.insts), End: -1})
}

func (b *Builder) closeProc() {
	if n := len(b.procs); n > 0 && b.procs[n-1].End < 0 {
		b.procs[n-1].End = len(b.insts)
	}
}

// Entry marks the current position as the program entry point
// (default is instruction 0).
func (b *Builder) Entry() { b.entry = len(b.insts) }

// I emits an instruction with up to two operands. Operand shapes the
// opcode does not accept (isa.Inst.CheckOperands) are build errors.
func (b *Builder) I(op isa.Op, operands ...isa.Operand) {
	in := isa.Inst{Op: op, Target: -1}
	switch len(operands) {
	case 0:
	case 1:
		in.A = operands[0]
	case 2:
		in.A, in.B = operands[0], operands[1]
	default:
		b.errorf("%s: too many operands", op)
	}
	if err := in.CheckOperands(); err != nil {
		b.errorf("instruction %d (%s): %w", len(b.insts), in, err)
	}
	b.insts = append(b.insts, in)
}

// J emits a jump or conditional branch to a label.
func (b *Builder) J(op isa.Op, label string) {
	if op != isa.JMP && !op.IsBranch() {
		b.errorf("instruction %d: %s is no jump", len(b.insts), op)
	}
	b.insts = append(b.insts, isa.Inst{Op: op, Target: -1, TargetSym: label})
}

// Call emits a call to a procedure label.
func (b *Builder) Call(proc string) {
	b.insts = append(b.insts, isa.Inst{Op: isa.CALL, Target: -1, TargetSym: proc})
}

// Ret emits a return.
func (b *Builder) Ret() { b.I(isa.RET) }

// ---------------------------------------------------------------------------
// Data section

func (b *Builder) defineSym(name string, off uint32) {
	if _, dup := b.symbols[name]; dup {
		b.errorf("duplicate data symbol %q", name)
		return
	}
	b.symbols[name] = off
}

// Align pads the data section to a multiple of n bytes. MMX code depends on
// 8-byte alignment for quadword loads.
func (b *Builder) Align(n int) {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
}

// Bytes places raw bytes in the data section under a symbol (8-byte aligned).
// It appends rather than going through place, which would zero the new
// bytes before the copy; images make this the largest directive.
func (b *Builder) Bytes(name string, v []byte) {
	b.Align(8)
	b.defineSym(name, uint32(len(b.data)))
	b.data = append(b.data, v...)
}

// Words places little-endian int16 data under a symbol (8-byte aligned).
func (b *Builder) Words(name string, v []int16) {
	d := b.place(name, 2*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint16(d[2*i:], uint16(x))
	}
}

// Dwords places little-endian int32 data under a symbol (8-byte aligned).
func (b *Builder) Dwords(name string, v []int32) {
	d := b.place(name, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(d[4*i:], uint32(x))
	}
}

// Floats places float32 data under a symbol (8-byte aligned).
func (b *Builder) Floats(name string, v []float32) {
	d := b.place(name, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(d[4*i:], math.Float32bits(x))
	}
}

// Doubles places float64 data under a symbol (8-byte aligned).
func (b *Builder) Doubles(name string, v []float64) {
	d := b.place(name, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(d[8*i:], math.Float64bits(x))
	}
}

// place aligns the data section to 8 bytes, defines the symbol there and
// extends the section by n bytes in one step, returning them to be filled.
func (b *Builder) place(name string, n int) []byte {
	b.Align(8)
	off := len(b.data)
	b.defineSym(name, uint32(off))
	b.data = slices.Grow(b.data, n)[:off+n]
	return b.data[off:]
}

// Reserve allocates zero-initialized space (BSS) under a symbol,
// 8-byte aligned. The name is defined at once, so that data or space of
// the same name is a duplicate; Link places it after the data.
func (b *Builder) Reserve(name string, size int) {
	b.defineSym(name, 0)
	b.bss = append(b.bss, bssEntry{name, uint32(size)})
}

// ---------------------------------------------------------------------------
// Link

// Link resolves labels, procedure extents and data symbols, producing an
// executable Program.
func (b *Builder) Link() (*Program, error) {
	b.closeProc()
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}

	// Lay out BSS after initialized data, both 8-byte aligned.
	b.Align(8)
	symbols := make(map[string]uint32, len(b.symbols)+len(b.bss))
	for name, off := range b.symbols {
		symbols[name] = DataBase + off
	}
	bssOff := uint32(len(b.data))
	var bssSize uint32
	for _, e := range b.bss {
		symbols[e.name] = DataBase + bssOff + bssSize
		bssSize += (e.size + 7) &^ 7
	}

	insts := make([]isa.Inst, len(b.insts))
	copy(insts, b.insts)
	resolveOperand := func(o *isa.Operand, i int) error {
		if o.Sym == "" {
			return nil
		}
		addr, ok := symbols[o.Sym]
		if !ok {
			err := fmt.Errorf("unknown symbol %q", o.Sym)
			return &linkError{fmt.Sprintf("asm(%s): instruction %d (%s): %v", b.name, i, insts[i], err), i, o.Sym, err}
		}
		switch o.Kind {
		case isa.KindMem:
			o.Disp += int32(addr)
		case isa.KindImm:
			o.Imm += int64(addr)
		default:
			return fmt.Errorf("asm(%s): instruction %d: symbol on %v operand", b.name, i, o.Kind)
		}
		// The symbol is folded into the displacement now; dropping it keeps
		// listings self-contained (ParseSource round-trips them without the
		// data segment).
		o.Sym = ""
		return nil
	}
	for i := range insts {
		in := &insts[i]
		if in.TargetSym != "" {
			idx, ok := b.labels[in.TargetSym]
			if !ok {
				err := fmt.Errorf("unknown label %q", in.TargetSym)
				return nil, &linkError{fmt.Sprintf("asm(%s): instruction %d (%s): %v", b.name, i, in, err), i, in.TargetSym, err}
			}
			in.Target = int32(idx)
		}
		if err := resolveOperand(&in.A, i); err != nil {
			return nil, err
		}
		if err := resolveOperand(&in.B, i); err != nil {
			return nil, err
		}
	}

	memSize := uint32(DataBase) + uint32(len(b.data)) + bssSize + StackSize
	memSize = (memSize + 0xFFF) &^ 0xFFF // page-align the image

	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	procs := make([]ProcInfo, len(b.procs))
	copy(procs, b.procs)
	sort.Slice(procs, func(i, j int) bool { return procs[i].Start < procs[j].Start })

	// The Builder only ever appends to its data section, so the Program can
	// share the bytes written so far; the capacity limit keeps any later
	// append from either side out of the other's view.
	data := b.data[:len(b.data):len(b.data)]

	return &Program{
		Name:    b.name,
		Meta:    isa.ProgramMeta(insts),
		blocks:  ComputeBlocks(insts, b.entry),
		Insts:   insts,
		Entry:   b.entry,
		Labels:  labels,
		Symbols: symbols,
		Data:    data,
		BSSSize: bssSize,
		MemSize: memSize,
		Procs:   procs,
	}, nil
}

// linkError is a label or symbol that instruction inst uses but nothing
// defines. msg is the whole error, err the part after its place.
// ParseSource pins it to the line that names it.
type linkError struct {
	msg  string
	inst int
	name string
	err  error
}

func (e *linkError) Error() string { return e.msg }

// MustLink links and panics on error; for use in tests and registries where
// a failure is a programming bug.
func (b *Builder) MustLink() *Program {
	p, err := b.Link()
	if err != nil {
		panic(err)
	}
	return p
}
