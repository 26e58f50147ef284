// A textual front end for the macro-assembler. ParseSource accepts the
// syntax Program.Listing and isa.Inst.String render — labels,
// Intel-operand-order instructions, ';' comments, optional leading
// instruction indices — plus a handful of data directives, and drives the
// same Builder/Link pipeline the Go macro programs use. Listings of linked
// programs round-trip: ParseSource(p.Listing()) reproduces p's instruction
// stream exactly (data placement is not part of a listing).
package asm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"mmxdsp/internal/isa"
)

// maxReserve bounds a single .reserve directive so hostile sources cannot
// request absurd memory images.
const maxReserve = 1 << 24

var opLookup = sync.OnceValue(func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		m[op.Name()] = op
	}
	return m
})

var regLookup = sync.OnceValue(func() map[string]isa.Reg {
	m := make(map[string]isa.Reg, isa.NumRegs)
	for r := isa.Reg(1); int(r) < isa.NumRegs; r++ {
		m[r.String()] = r
	}
	return m
})

var sizeLookup = map[string]isa.Size{
	"byte": isa.SizeB, "word": isa.SizeW, "dword": isa.SizeD, "qword": isa.SizeQ,
}

// ParseSource assembles a textual program into a linked, executable
// Program. Lines hold one of:
//
//	label:              a code label (may be followed by an instruction)
//	op dst, src         an instruction in assembler syntax
//	.entry              mark the entry point (default: instruction 0)
//	.proc name          open a procedure extent (defines the label too)
//	.bytes name v,...   initialized data (decimal or 0x values)
//	.words name v,...
//	.dwords name v,...
//	.hex name 0a1b...   initialized data as one hex string (Program.Source)
//	.reserve name n     zero-initialized space
//
// ';' starts a comment; an optional leading decimal instruction index (as
// printed by Program.Listing) is ignored. Line-scoped errors are
// *SourceError values carrying 1-based line and column positions.
func ParseSource(name, src string) (*Program, error) {
	b := NewBuilder(name)
	lines := strings.Split(src, "\n")
	// The line of each instruction, for link errors.
	var instLine []int
	for ln, raw := range lines {
		line := strings.TrimSpace(code(raw))
		if line == "" {
			continue
		}
		if err := parseLine(b, line); err != nil {
			return nil, &SourceError{
				File: name,
				Line: ln + 1,
				Col:  columnOf(raw, err),
				Err:  err,
			}
		}
		for len(instLine) < len(b.insts) {
			instLine = append(instLine, ln)
		}
	}
	p, err := b.Link()
	var le *linkError
	if errors.As(err, &le) {
		ln := instLine[le.inst]
		return nil, &SourceError{File: name, Line: ln + 1, Col: identColumn(code(lines[ln]), le.name), Err: le.err}
	}
	return p, err
}

// code is a source line without its comment.
func code(raw string) string {
	if i := strings.IndexByte(raw, ';'); i >= 0 {
		return raw[:i]
	}
	return raw
}

// identColumn is the 1-based column of the first whole identifier name on
// the line, or 1 when there is none.
func identColumn(line, name string) int {
	re := regexp.MustCompile(`(?:^|[^\w.])(` + regexp.QuoteMeta(name) + `)(?:[^\w.]|$)`)
	if m := re.FindStringSubmatchIndex(line); m != nil {
		return m[2] + 1
	}
	return 1
}

// SourceError is a parse failure pinned to a source position. Line and Col
// are 1-based; Col points at the offending token when the diagnostic names
// one, else at the first non-blank column of the statement.
type SourceError struct {
	File string // program name as passed to ParseSource
	Line int
	Col  int
	Err  error
}

func (e *SourceError) Error() string {
	return fmt.Sprintf("asm(%s): line %d:%d: %v", e.File, e.Line, e.Col, e.Err)
}

func (e *SourceError) Unwrap() error { return e.Err }

// operandError pins an error to the token it names: rest is the tail of
// the statement from the token's first byte.
type operandError struct {
	rest string
	err  error
}

func (e *operandError) Error() string { return e.err.Error() }
func (e *operandError) Unwrap() error { return e.err }

// errAt pins err to the token that rest, a tail of the statement, starts
// with. An empty rest (a missing token) leaves the statement's column.
func errAt(rest string, err error) error {
	if rest == "" {
		return err
	}
	return &operandError{rest: rest, err: err}
}

// columnOf locates the diagnostic's position in the raw source line: the
// token an operandError names, else the statement's first non-blank byte.
// 1-based; 1 for blank lines (which never error anyway).
func columnOf(raw string, err error) int {
	var oe *operandError
	if errors.As(err, &oe) {
		// The statement is a suffix of the line's code, less its
		// trailing blanks, and rest is a suffix of the statement.
		return len(strings.TrimRightFunc(code(raw), unicode.IsSpace)) - len(oe.rest) + 1
	}
	if i := strings.IndexFunc(raw, func(r rune) bool { return r != ' ' && r != '\t' }); i >= 0 {
		return i + 1
	}
	return 1
}

func parseLine(b *Builder, line string) error {
	// Directives.
	if strings.HasPrefix(line, ".") {
		return parseDirective(b, line)
	}
	// Optional leading instruction index from a Listing.
	if first, rest, ok := strings.Cut(line, " "); ok && isInt(first) {
		line = strings.TrimSpace(rest)
	} else if isInt(line) {
		return errAt(line, fmt.Errorf("bare instruction index %q", line))
	}
	// Labels, possibly stacked before an instruction on the same line.
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 || !isIdent(line[:i]) {
			break
		}
		// A ':' also appears in nothing else we parse, so this is a label.
		b.Label(line[:i])
		if len(b.errs) > 0 {
			return errAt(line, b.errs[len(b.errs)-1])
		}
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return nil
		}
	}
	return parseInst(b, line)
}

func parseDirective(b *Builder, line string) error {
	dir, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch dir {
	case ".entry":
		if rest != "" {
			return fmt.Errorf(".entry takes no operands")
		}
		b.Entry()
		return nil
	case ".proc":
		if !isIdent(rest) {
			return errAt(rest, fmt.Errorf(".proc wants a name, got %q", rest))
		}
		b.Proc(rest)
	case ".bytes", ".words", ".dwords":
		name, vals, ok := strings.Cut(rest, " ")
		if !ok || !isIdent(name) {
			return fmt.Errorf("%s wants: %s name v,v,...", dir, dir)
		}
		nums, err := parseIntList(vals)
		if err != nil {
			return err
		}
		switch dir {
		case ".bytes":
			out := make([]byte, len(nums))
			for i, v := range nums {
				out[i] = byte(v)
			}
			b.Bytes(name, out)
		case ".words":
			out := make([]int16, len(nums))
			for i, v := range nums {
				out[i] = int16(v)
			}
			b.Words(name, out)
		case ".dwords":
			out := make([]int32, len(nums))
			for i, v := range nums {
				out[i] = int32(v)
			}
			b.Dwords(name, out)
		}
	case ".hex":
		name, hexText, ok := strings.Cut(rest, " ")
		hexText = strings.TrimSpace(hexText)
		if !ok || !isIdent(name) || hexText == "" {
			return fmt.Errorf(".hex wants: .hex name hexbytes")
		}
		if len(hexText) > 2*maxReserve {
			return fmt.Errorf(".hex data %d bytes exceeds %d", len(hexText)/2, maxReserve)
		}
		data, err := hex.DecodeString(hexText)
		if err != nil {
			return fmt.Errorf("bad .hex data: %v", err)
		}
		b.Bytes(name, data)
	case ".reserve":
		name, szText, ok := strings.Cut(rest, " ")
		if !ok || !isIdent(name) {
			return fmt.Errorf(".reserve wants: .reserve name size")
		}
		szText = strings.TrimSpace(szText)
		sz, err := strconv.ParseInt(szText, 0, 64)
		if err != nil || sz < 0 || sz > maxReserve {
			return errAt(szText, fmt.Errorf("bad .reserve size %q", szText))
		}
		b.Reserve(name, int(sz))
	default:
		return errAt(line, fmt.Errorf("unknown directive %q", dir))
	}
	if len(b.errs) > 0 {
		// The builder rejected the name: point at it.
		return errAt(rest, b.errs[len(b.errs)-1])
	}
	return nil
}

func parseInst(b *Builder, line string) error {
	mnemonic, rest, _ := strings.Cut(line, " ")
	op, ok := opLookup()[mnemonic]
	if !ok {
		return errAt(line, fmt.Errorf("unknown mnemonic %q", mnemonic))
	}
	rest = strings.TrimSpace(rest)

	// Control transfers take a label operand, matching Builder.J/Call.
	if op == isa.JMP || op == isa.CALL || op.IsBranch() {
		if !isIdent(rest) {
			return errAt(rest, fmt.Errorf("%s wants a label, got %q", mnemonic, rest))
		}
		b.insts = append(b.insts, isa.Inst{Op: op, Target: -1, TargetSym: rest})
		return nil
	}

	var operands []isa.Operand
	var tails []string // the statement's tail from each operand's first byte
	if rest != "" {
		for tail := rest; ; {
			field, next, more := strings.Cut(tail, ",")
			at := strings.TrimLeftFunc(tail, unicode.IsSpace)
			o, err := parseOperand(strings.TrimSpace(field), at)
			if err != nil {
				return err
			}
			operands = append(operands, o)
			tails = append(tails, at)
			if !more {
				break
			}
			tail = next
		}
	}
	if len(operands) > 2 {
		return fmt.Errorf("%s: too many operands", mnemonic)
	}
	b.I(op, operands...)
	if len(b.errs) == 0 {
		return nil
	}
	err := b.errs[len(b.errs)-1]
	var se *isa.ShapeError
	if !errors.As(err, &se) {
		return err
	}
	if se.N > len(tails) {
		return se // a missing operand: the statement's column
	}
	return errAt(tails[se.N-1], se)
}

// parseOperand parses one operand; at is the statement's tail from the
// operand's first byte, for pinning errors.
func parseOperand(text, at string) (isa.Operand, error) {
	if text == "" {
		return isa.Operand{}, fmt.Errorf("empty operand")
	}
	if r, ok := regLookup()[text]; ok {
		return isa.Operand{Kind: isa.KindReg, Reg: r}, nil
	}
	// Memory operand, with optional width prefix.
	memText := text
	size := isa.SizeNone
	if word, rest, ok := strings.Cut(text, " "); ok {
		if s, isSize := sizeLookup[word]; isSize {
			size = s
			memText = strings.TrimSpace(rest)
		}
	}
	if strings.HasPrefix(memText, "[") {
		if !strings.HasSuffix(memText, "]") {
			return isa.Operand{}, errAt(at, fmt.Errorf("unterminated memory operand %q", text))
		}
		// memText is a suffix of text; the body starts after its '['.
		return parseMem(memText[1:len(memText)-1], size, at[len(text)-len(memText)+1:])
	}
	if size != isa.SizeNone {
		return isa.Operand{}, errAt(at, fmt.Errorf("width prefix on non-memory operand %q", text))
	}
	// Immediate.
	if v, err := strconv.ParseInt(text, 0, 64); err == nil {
		return isa.Operand{Kind: isa.KindImm, Imm: v}, nil
	}
	// A bare identifier is the address of a data symbol (resolved at
	// link time), the textual form of ImmSym.
	if isIdent(text) {
		return isa.Operand{Kind: isa.KindImm, Sym: text}, nil
	}
	return isa.Operand{}, errAt(at, fmt.Errorf("bad operand %q", text))
}

// parseMem parses the inside of a bracketed effective address:
// signed terms of the forms sym, base, index*scale and disp. at is the
// statement's tail from the body's first byte, for pinning errors.
func parseMem(body string, size isa.Size, at string) (isa.Operand, error) {
	o := isa.Operand{Kind: isa.KindMem, Size: size}
	var disp int64
	hasTerm := false
	for _, t := range splitTerms(body) {
		term := strings.TrimSpace(t.text)
		if term == "" {
			return o, fmt.Errorf("empty term in memory operand [%s]", body)
		}
		hasTerm = true
		// The statement's tail from the term's first byte.
		termAt := strings.TrimLeftFunc(at[t.off:], unicode.IsSpace)
		switch {
		case isInt(term) || strings.HasPrefix(term, "0x"):
			v, err := strconv.ParseInt(term, 0, 64)
			if err != nil {
				return o, errAt(termAt, fmt.Errorf("bad displacement %q", term))
			}
			if t.neg {
				v = -v
			}
			disp += v
		case t.neg:
			return o, errAt(termAt, fmt.Errorf("negated non-numeric term %q", term))
		case strings.ContainsRune(term, '*'):
			regText, scaleText, _ := strings.Cut(term, "*")
			r, ok := regLookup()[strings.TrimSpace(regText)]
			if !ok || !r.IsGPR() {
				return o, errAt(termAt, fmt.Errorf("bad index register %q", regText))
			}
			scale, err := strconv.ParseUint(strings.TrimSpace(scaleText), 10, 8)
			if err != nil || (scale != 1 && scale != 2 && scale != 4 && scale != 8) {
				scaleAt := strings.TrimLeftFunc(termAt[len(regText)+1:], unicode.IsSpace)
				return o, errAt(scaleAt, fmt.Errorf("bad scale %q (want 1, 2, 4 or 8)", scaleText))
			}
			if o.Index != isa.NoReg {
				return o, fmt.Errorf("two index terms in [%s]", body)
			}
			o.Index, o.Scale = r, uint8(scale)
		default:
			if r, ok := regLookup()[term]; ok {
				if !r.IsGPR() {
					return o, errAt(termAt, fmt.Errorf("non-GPR %q in address", term))
				}
				switch {
				case o.Reg == isa.NoReg:
					o.Reg = r
				case o.Index == isa.NoReg:
					o.Index, o.Scale = r, 1
				default:
					return o, fmt.Errorf("three register terms in [%s]", body)
				}
				continue
			}
			if !isIdent(term) {
				return o, errAt(termAt, fmt.Errorf("bad address term %q", term))
			}
			if o.Sym != "" {
				return o, fmt.Errorf("two symbols in [%s]", body)
			}
			o.Sym = term
		}
	}
	if !hasTerm {
		return o, fmt.Errorf("empty memory operand")
	}
	if disp < -1<<31 || disp > 1<<31-1 {
		return o, fmt.Errorf("displacement %d overflows 32 bits", disp)
	}
	o.Disp = int32(disp)
	return o, nil
}

// signedTerm is one +/- separated component of an effective address.
type signedTerm struct {
	text string
	off  int // text's byte offset in the address
	neg  bool
}

// splitTerms splits "a+b-8" into {a,+}, {b,+}, {8,-}.
func splitTerms(body string) []signedTerm {
	var out []signedTerm
	start, neg := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '+', '-':
			if i == start && len(out) == 0 && body[i] == '-' {
				// A leading '-' signs the first term ("[-8]").
				continue
			}
			out = append(out, signedTerm{text: body[start:i], off: start, neg: neg})
			neg = body[i] == '-'
			start = i + 1
		}
	}
	term := body[start:]
	if trimmed := strings.TrimSpace(body); strings.HasPrefix(trimmed, "-") && len(out) == 0 {
		start = strings.IndexByte(body, '-') + 1
		term, neg = trimmed[1:], true
	}
	out = append(out, signedTerm{text: term, off: start, neg: neg})
	return out
}

// parseIntList parses a directive's comma-separated values; text is the
// statement's tail from the first value.
func parseIntList(text string) ([]int64, error) {
	var out []int64
	for tail := text; ; {
		f, next, more := strings.Cut(tail, ",")
		v, err := strconv.ParseInt(strings.TrimSpace(f), 0, 64)
		if err != nil {
			return nil, errAt(strings.TrimLeftFunc(tail, unicode.IsSpace),
				fmt.Errorf("bad value %q in data list", strings.TrimSpace(f)))
		}
		out = append(out, v)
		if !more {
			return out, nil
		}
		tail = next
	}
}

// isInt reports whether s is a decimal integer (optionally signed).
func isInt(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '-' || s[0] == '+' {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// isIdent reports whether s is a label/symbol identifier: it must start
// with a letter or '_', and continue with those, digits or interior '.'s.
// A leading '.' is reserved for directives — a label named "." would list
// as ".:", which cannot re-parse.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9', c == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
