package vm_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isaref"
)

// TestFPNaNResults pins the bits of every NaN an FP arithmetic instruction
// can leave, on all three paths and on isaref: of two NaN operands the one
// with the larger fraction field, the destination on a tie; of one, that
// one; either made quiet; with no NaN operand the real indefinite. Each
// case runs with a register, a qword and (where the source is a float32
// NaN) a dword source, in a loop long enough for trace dispatch to form
// traces.
func TestFPNaNResults(t *testing.T) {
	const (
		quiet = 1 << 51
		sA    = 0x7FF0000000000001 // signaling, fraction 1
		sA2   = 0x7FF0000000000003 // signaling, fraction 3
		qB    = 0xFFF8000000000002 // quiet, negative
		qC    = 0x7FF8000000000005 // quiet, fraction above qB's
		qD    = 0xFFF8000000000005 // qC's fraction, negative
		qBig  = 0x7FFF000000000000 // quiet, fraction above every other
		one   = 0x3FF8000000000000 // 1.5
		inf   = 0x7FF0000000000000
		ninf  = 0xFFF0000000000000
		zero  = 0
		indef = 0xFFF8000000000000
		// f32 is a quiet float32 NaN, 0xFFC00003; as a double it reads
		// f32d: sign set, fraction 0x400003 shifted up by 29.
		f32  = 0xFFC00003
		f32d = 0xFFF8000060000000
	)
	type nanCase struct {
		op      string
		a, b    uint64
		dword   bool // b is a float32 in memory (no register form)
		want    uint64
		comment string
	}
	cases := []nanCase{
		{"fadd", sA, qB, false, qB, "quiet beats signaling"},
		{"fadd", qB, sA, false, qB, "quiet beats signaling, either order"},
		{"fsub", qC, qB, false, qC, "larger fraction"},
		{"fsub", qB, qC, false, qC, "larger fraction, either order"},
		{"fsubr", qB, qC, false, qC, "larger fraction, reversed operation"},
		{"fmul", qC, qD, false, qC, "tie: the destination"},
		{"fmul", qD, qC, false, qD, "tie: the destination, either order"},
		{"fdiv", sA, sA2, false, sA2 | quiet, "two signaling: larger fraction, quieted"},
		{"fdiv", sA, one, false, sA | quiet, "one NaN, quieted"},
		{"fadd", one, sA, false, sA | quiet, "one NaN as source, quieted"},
		{"fadd", inf, ninf, false, indef, "inf-inf"},
		{"fmul", zero, inf, false, indef, "0*inf"},
		{"fdiv", zero, zero, false, indef, "0/0"},
		{"fsub", inf, inf, false, indef, "inf-inf by fsub"},
		{"fadd", qB, f32, true, f32d, "float32 source, larger fraction"},
		{"fmul", qBig, f32, true, qBig, "float32 source, destination larger"},
		{"fdiv", one, f32, true, f32d, "float32 source alone"},
	}
	type slot struct {
		c    nanCase
		form string
	}
	var slots []slot
	var src, body []string
	for _, c := range cases {
		forms := []string{"reg", "qword"}
		if c.dword {
			forms = []string{"dword"}
		}
		for _, f := range forms {
			i := len(slots)
			slots = append(slots, slot{c, f})
			src = append(src, fmt.Sprint(int32(uint32(c.b))), fmt.Sprint(int32(uint32(c.b>>32))))
			body = append(body, fmt.Sprintf("fldc fp0, %d", int64(c.a)))
			switch f {
			case "reg":
				body = append(body, fmt.Sprintf("fldc fp1, %d", int64(c.b)), c.op+" fp0, fp1")
			default:
				body = append(body, fmt.Sprintf("%s fp0, %s [esi+%d]", c.op, f, 8*i))
			}
			body = append(body, fmt.Sprintf("fst qword [edi+%d], fp0", 8*i))
		}
	}
	lines := []string{
		".dwords src " + strings.Join(src, ","),
		fmt.Sprintf(".reserve out %d", 8*len(slots)),
		".entry",
		"mov esi, src",
		"mov edi, out",
		"mov ecx, 80",
		"loop:",
	}
	lines = append(lines, body...)
	lines = append(lines, "sub ecx, 1", "jne loop", "halt")
	prog, err := asm.ParseSource("fpnan", strings.Join(lines, "\n")+"\n")
	if err != nil {
		t.Fatal(err)
	}
	out := int(prog.Addr("out"))
	check := func(path string, mem []byte) {
		t.Helper()
		for i, s := range slots {
			if got := binary.LittleEndian.Uint64(mem[out+8*i:]); got != s.c.want {
				t.Errorf("%s: %s %#016x, %#016x (%s source; %s) = %#016x, want %#016x",
					path, s.c.op, s.c.a, s.c.b, s.form, s.c.comment, got, s.c.want)
			}
		}
	}
	ref := isaref.New(prog)
	if f := ref.Run(1 << 20); f != nil {
		t.Fatalf("isaref faults at pc=%d: %s", f.PC, f.Msg)
	}
	check("isaref", ref.Mem)
	for _, mode := range []string{"generic", "block", "trace"} {
		got := runPath(t, prog, mode)
		check(mode, got.mem)
		if mode == "trace" && got.traces.Formed == 0 {
			t.Errorf("no trace formed: %+v", got.traces)
		}
	}
}
