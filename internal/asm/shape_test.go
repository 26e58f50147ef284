package asm_test

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
)

// TestParseSourceRejectsShapes: every operand shape of
// testdata/rejected_shapes.txt fails ParseSource with a SourceError at its
// line and column, carrying the shape error.
func TestParseSourceRejectsShapes(t *testing.T) {
	data, err := os.ReadFile("testdata/rejected_shapes.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, row := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(row, "#") {
			continue
		}
		rows++
		f := strings.Split(row, " | ")
		col, _ := strconv.Atoi(f[1])
		_, err := asm.ParseSource("shape", ".dwords buf 1,2,3,4\n\tmov esi, buf\n\t"+f[0]+" ; comment\n")
		var se *asm.SourceError
		var shape *isa.ShapeError
		switch {
		case !errors.As(err, &se) || !errors.As(err, &shape):
			t.Errorf("%s: error %v, want a SourceError carrying a ShapeError", f[0], err)
		case se.Line != 3 || se.Col != col || se.Err.Error() != f[2]:
			t.Errorf("%s: %d:%d %v, want 3:%d %s", f[0], se.Line, se.Col, se.Err, col, f[2])
		}
	}
	if rows == 0 {
		t.Fatal("no rows")
	}
}

// TestLinkRejectsShapes: a Go-built program whose operand shape the opcode
// does not accept fails Link, naming the instruction's index. Shapes only a
// Builder can make (a non-GPR address register, an unknown width, a J of
// an opcode that is no jump) are rejected too.
func TestLinkRejectsShapes(t *testing.T) {
	for _, tc := range []struct {
		a, b isa.Operand
		want string
	}{
		{asm.MemD(isa.ESI, 0), asm.MemD(isa.ESI, 4), "instruction 1 (mov dword [esi], dword [esi+4]): mov: operand 2 dword [esi+4] is a second memory operand"},
		{asm.R(isa.EAX), asm.MemD(isa.MM0, 0), "instruction 1 (mov eax, dword [mm0]): mov: operand 2 dword [mm0] is not accepted"},
		{asm.R(isa.EAX), asm.MemIdx(isa.SizeD, isa.ESI, isa.FP1, 4, 0), "instruction 1 (mov eax, dword [esi+fp1*4]): mov: operand 2 dword [esi+fp1*4] is not accepted"},
		{asm.R(isa.EAX), asm.Mem(3, isa.ESI, 0), "mov: operand 2 ? [esi] is not accepted"},
		{asm.Imm(1), asm.R(isa.EAX), "instruction 1 (add 1, eax): add: operand 1 1 is not accepted"},
	} {
		b := asm.NewBuilder("shapes")
		op := isa.MOV
		if tc.a.IsImm() {
			op = isa.ADD
		}
		b.I(isa.NOP)
		b.I(op, tc.a, tc.b)
		b.I(isa.HALT)
		_, err := b.Link()
		var se *isa.ShapeError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Link: %v, want a ShapeError containing %q", err, tc.want)
		}
	}
	b := asm.NewBuilder("shapes")
	b.Label("top")
	b.J(isa.ADD, "top")
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "instruction 0: add is no jump") {
		t.Errorf("Link of J(add): %v, want an error naming instruction 0", err)
	}
}

// TestParseSourceLinkErrorPositions: names Link cannot bind answer a
// SourceError at the line that names them, with the column of the name.
func TestParseSourceLinkErrorPositions(t *testing.T) {
	for _, tc := range []struct {
		src       string
		line, col int
		want      string
	}{
		{"loop:\n\tadd eax, 1\n\tjmp lo ; lo\n\thalt\n", 3, 6, `unknown label "lo"`},
		{"\tmov eax, 1\n\tmov eax, dword [nosym+4]\n", 2, 18, `unknown symbol "nosym"`},
		{"\tmov eax, nosym\n", 1, 11, `unknown symbol "nosym"`},
		{".dwords buf 1,2\n.reserve tmp 8\n.reserve buf 8\nhalt\n", 3, 10, `asm(link): duplicate data symbol "buf"`},
		{".reserve tmp 8\n.dwords tmp 1,2\nhalt\n", 2, 9, `asm(link): duplicate data symbol "tmp"`},
		// The name occurs earlier on the line, inside the directive.
		{".dwords s 1\n.bytes s 2\nhalt\n", 2, 8, `asm(link): duplicate data symbol "s"`},
		{".bytes s 1\n.words s 2\nhalt\n", 2, 8, `asm(link): duplicate data symbol "s"`},
		{".words s 1\n.dwords s 2\nhalt\n", 2, 9, `asm(link): duplicate data symbol "s"`},
		{".dwords r 1\n  .reserve r 8 ; r\nhalt\n", 2, 12, `asm(link): duplicate data symbol "r"`},
		{".proc proc\n\thalt\n.proc proc\n", 3, 7, `asm(link): duplicate label "proc"`},
	} {
		_, err := asm.ParseSource("link", tc.src)
		var se *asm.SourceError
		if !errors.As(err, &se) {
			t.Errorf("%q: error %v, want a SourceError", tc.src, err)
			continue
		}
		if se.Line != tc.line || se.Col != tc.col || se.Err.Error() != tc.want {
			t.Errorf("%q: %d:%d %v, want %d:%d %s", tc.src, se.Line, se.Col, se.Err, tc.line, tc.col, tc.want)
		}
	}
}
