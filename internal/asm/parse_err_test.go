// Error-path coverage for ParseSource with position assertions: every
// parse-stage diagnostic must name the source (asm(<name>)) and the
// 1-based line it arose on, so a daemon operator reading a 400 from a
// submitted listing can find the offending line.
package asm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mmxdsp/internal/asm"
)

func TestParseSourceErrorLineInfo(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int    // expected 1-based line in the error
		want string // expected message fragment
	}{
		{
			name: "unknown mnemonic first line",
			src:  "frobnicate eax, 1",
			line: 1,
			want: `unknown mnemonic "frobnicate"`,
		},
		{
			name: "unknown mnemonic after blanks and comments",
			src:  "; header\n\nstart:\n\tmov eax, 1\n\tfrobnicate eax\n",
			line: 5,
			want: `unknown mnemonic "frobnicate"`,
		},
		{
			name: "duplicate label",
			src:  "loop:\n\tadd eax, 1\nloop:\n\thalt\n",
			line: 3,
			want: `duplicate label "loop"`,
		},
		{
			name: "duplicate label via proc",
			src:  ".proc main\n\thalt\nmain:\n\thalt\n",
			line: 3,
			want: `duplicate label "main"`,
		},
		{
			name: "duplicate data symbol",
			src:  ".words xs 1,2\n.words xs 3,4\n",
			line: 2,
			want: `duplicate data symbol "xs"`,
		},
		{
			name: "malformed operand",
			src:  "start:\n\tmov eax, @#$\n",
			line: 2,
			want: `bad operand "@#$"`,
		},
		{
			name: "malformed memory operand",
			src:  "\tmov eax, 1\n\tmov ebx, dword [eax*7]\n",
			line: 2,
			want: "bad scale",
		},
		{
			name: "unterminated memory operand",
			src:  "a:\nb:\nc:\n\tmov eax, dword [xs\n",
			line: 4,
			want: "unterminated memory operand",
		},
		{
			name: "empty operand",
			src:  "\tadd eax, ,\n",
			line: 1,
			want: "empty operand",
		},
		{
			name: "too many operands",
			src:  "one:\n\ttwo: add eax, ebx, ecx\n",
			line: 2,
			want: "too many operands",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := asm.ParseSource("prog", tc.src)
			if err == nil {
				t.Fatalf("ParseSource(%q) succeeded, want error", tc.src)
			}
			msg := err.Error()
			if wantPos := fmt.Sprintf("asm(prog): line %d:", tc.line); !strings.Contains(msg, wantPos) {
				t.Errorf("error %q does not carry position %q", msg, wantPos)
			}
			if !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not contain %q", msg, tc.want)
			}
		})
	}
}

// TestParseSourceErrorStopsAtFirst pins that parsing reports the earliest
// failing line, not a later or aggregated one.
func TestParseSourceErrorStopsAtFirst(t *testing.T) {
	src := "\tbogus1 eax\n\tbogus2 ebx\n"
	_, err := asm.ParseSource("prog", src)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "line 1:") || !strings.Contains(err.Error(), "bogus1") {
		t.Errorf("error %q should report line 1 / bogus1 first", err)
	}
}

// TestParseSourceErrorColumns pins every diagnostic that names a token to
// that token's column, where the token also occurs earlier on the line.
// A bare index and an unknown directive always start their statement, so
// nothing can precede them but blanks.
func TestParseSourceErrorColumns(t *testing.T) {
	for _, tc := range []struct {
		src  string
		col  int
		want string
	}{
		{"\t\t7", 3, `bare instruction index "7"`},
		{"a: a:", 4, `asm(col): duplicate label "a"`},
		{".proc .proc", 7, `.proc wants a name, got ".proc"`},
		{".reserve r r", 12, `bad .reserve size "r"`},
		{"  .dwordz d 1", 3, `unknown directive ".dwordz"`},
		{"nop2: nop2", 7, `unknown mnemonic "nop2"`},
		{"a1j: jmp 1j", 10, `jmp wants a label, got "1j"`},
		{"a1x: mov eax, 1x", 15, `bad operand "1x"`},
		{"mov [eax], [eax", 12, `unterminated memory operand "[eax"`},
		{"a0xZZ: mov eax, [0xZZ]", 18, `bad displacement "0xZZ"`},
		{"mov ebx, [eax-ebx]", 15, `negated non-numeric term "ebx"`},
		{"movd mm0, [mm0*2]", 12, `bad index register "mm0"`},
		{"a3: mov eax, [eax*3]", 19, `bad scale "3" (want 1, 2, 4 or 8)`},
		{"movq mm0, [mm0]", 12, `non-GPR "mm0" in address`},
		{"x1a: mov eax, [1a]", 16, `bad address term "1a"`},
		{".words w 1, w", 13, `bad value "w" in data list`},
		{"add eax, ,", 10, `empty operand`},
		{"mov eax, [eax+]", 10, `empty term in memory operand [eax+]`},
		{".hex h zz", 8, `bad .hex data: encoding/hex: invalid byte: U+007A 'z'`},
	} {
		_, err := asm.ParseSource("col", tc.src)
		var se *asm.SourceError
		if !errors.As(err, &se) {
			t.Errorf("%q: error %v, want a SourceError", tc.src, err)
			continue
		}
		if se.Line != 1 || se.Col != tc.col || se.Err.Error() != tc.want {
			t.Errorf("%q: %d:%d %v, want 1:%d %s", tc.src, se.Line, se.Col, se.Err, tc.col, tc.want)
		}
	}
}
