package apps

import (
	"fmt"
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/jpegenc"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "Compresses an image into JPEG format. Converted an
// 118 kB Windows bitmap image into a JPEG image. Primary kernels include
// vector arithmetic for imaging and the discrete cosine transform (DCT)
// kernel." Our input is a 224x160 synthetic bitmap (~107 kB of RGB), and
// both versions run color conversion, 2-D DCT and quantization — the three
// functions the paper reports as 74% of jpeg.c's cycles — plus the zig-zag
// run-length symbol pass. See jpegmodel.go for the exact arithmetic of
// each version.

// jpegInput is the input bitmap, synthesized once per process; builds and
// checks only read it.
var jpegInput = sync.OnceValue(func() []uint8 { return synth.ImageRGB(jpgW, jpgH, 0x7E6) })

// JPEG returns the jpeg.c and jpeg.mmx benchmarks.
func JPEG() []core.Benchmark {
	descr := "JPEG compression core of a ~118 kB bitmap: color conversion, 2-D DCT, quantization, RLE"
	return []core.Benchmark{
		{
			Base: "jpeg", Version: core.VersionC, Kind: core.KindApplication, Descr: descr,
			Build: buildJpegC,
			Check: func(c *vm.CPU) error { return checkStream(c, jpegCExpected(), "jpeg.c") },
		},
		{
			Base: "jpeg", Version: core.VersionMMX, Kind: core.KindApplication, Descr: descr,
			Build: buildJpegMMX,
			Check: func(c *vm.CPU) error { return checkStream(c, jpegMMXExpected(), "jpeg.mmx") },
		},
	}
}

// jpegCExpected and jpegMMXExpected are the reference symbol streams of
// the C and MMX arithmetic (jpeg.mmx and jpeg2d.mmx share the latter),
// each computed once per process; the checks only read them.
var (
	jpegCExpected = sync.OnceValue(func() []byte {
		ty, tcb, tcr := ccTables()
		recips, biases := jpegRecipsC()
		return jpegModel(jpegInput(),
			func(r, g, b uint8) (int32, int32, int32) {
				return ccCModel(ty, tcb, tcr, r, g, b)
			},
			aan2D, recips, biases)
	})
	jpegMMXExpected = sync.OnceValue(func() []byte {
		recips, biases := jpegRecipsMMX()
		return jpegModel(jpegInput(), ccMMXModel, dctMMXModel, recips, biases)
	})
)

func checkStream(c *vm.CPU, want []byte, context string) error {
	base := c.Prog.Addr("stream")
	posAddr := c.Prog.Addr("spos")
	pos, ok := c.Mem.LoadU32(posAddr)
	if !ok {
		return fmt.Errorf("%s: cannot read stream position", context)
	}
	gotLen := int(pos - base)
	if gotLen != len(want) {
		return fmt.Errorf("%s: stream length %d, want %d", context, gotLen, len(want))
	}
	got, ok := c.Mem.ReadBytes(base, gotLen)
	if !ok {
		return fmt.Errorf("%s: cannot read stream", context)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: stream[%d] = %#x, want %#x", context, i, got[i], want[i])
		}
	}
	if gotLen < 1000 {
		return fmt.Errorf("%s: stream suspiciously short (%d bytes)", context, gotLen)
	}
	return nil
}

// placeJpegCommon places the data both versions share: input image, plane
// and block storage, zig-zag table, stream buffer, RLE state.
func placeJpegCommon(b *asm.Builder) {
	// One pad byte for the 4-byte MMX load; the full slice expression makes
	// append copy instead of writing past the shared input.
	img := jpegInput()
	b.Bytes("img", append(img[:len(img):len(img)], 0))
	n := jpgW * jpgH
	b.Reserve("planeY", 4*n)
	b.Reserve("planeCb", 4*n)
	b.Reserve("planeCr", 4*n)
	b.Reserve("blk32", 4*64)
	b.Reserve("qcoef", 2*64)
	zz := make([]int32, 64)
	for i, v := range jpegenc.ZigZag {
		zz[i] = int32(v)
	}
	b.Dwords("zigtab", zz)
	b.Dwords("dcpred", make([]int32, 3))
	b.Dwords("curcomp", []int32{0})
	b.Dwords("curplane", []int32{0})
	b.Dwords("bx", []int32{0})
	b.Dwords("by", []int32{0})
	b.Reserve("stream", jpgStreamCap)
	b.Dwords("spos", []int32{0})
	// planetab is filled at run time with the three plane addresses.
	b.Dwords("planetab", make([]int32, 3))
}

// emitJpegInit writes the plane table and stream pointer.
func emitJpegInit(b *asm.Builder) {
	for i, sym := range []string{"planeY", "planeCb", "planeCr"} {
		b.I(isa.MOV, asm.R(isa.EAX), asm.ImmSym(sym, 0))
		b.I(isa.MOV, asm.Sym(isa.SizeD, "planetab", int32(4*i)), asm.R(isa.EAX))
	}
	b.I(isa.MOV, asm.R(isa.EAX), asm.ImmSym("stream", 0))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "spos", 0), asm.R(isa.EAX))
}

// emitRleProc emits rle_block: converts qcoef (64 int16, natural order)
// into the (sym, value) stream, updating dcpred[curcomp]. Shared verbatim
// by both versions.
func emitRleProc(b *asm.Builder) {
	const name = "rle_block"
	b.Proc(name)
	// emitsym(sym in dl, value in ax): inlined below via a tiny helper
	// sequence; edi tracks the stream position.
	b.I(isa.MOV, asm.R(isa.EDI), asm.Sym(isa.SizeD, "spos", 0))
	putSym := func() {
		// dl = symbol, cx = value (via ecx). Uses edi.
		b.I(isa.MOV, asm.MemB(isa.EDI, 0), asm.R(isa.EDX))
		b.I(isa.MOV, asm.MemW(isa.EDI, 1), asm.R(isa.ECX))
		b.I(isa.ADD, asm.R(isa.EDI), asm.Imm(3))
	}

	// DC: diff = qcoef[0] - dcpred[curcomp].
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.Sym(isa.SizeW, "qcoef", 0))
	b.I(isa.MOV, asm.R(isa.EBX), asm.Sym(isa.SizeD, "curcomp", 0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.SymIdx(isa.SizeD, "dcpred", isa.EBX, 4, 0))
	b.I(isa.MOV, asm.SymIdx(isa.SizeD, "dcpred", isa.EBX, 4, 0), asm.R(isa.EAX))
	b.I(isa.SUB, asm.R(isa.EAX), asm.R(isa.ECX)) // diff
	// size = bit length of |diff| (shift loop).
	b.I(isa.MOV, asm.R(isa.EBX), asm.R(isa.EAX))
	b.I(isa.TEST, asm.R(isa.EBX), asm.R(isa.EBX))
	b.J(isa.JNS, name+".dcpos")
	b.I(isa.NEG, asm.R(isa.EBX))
	b.Label(name + ".dcpos")
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(0))
	b.Label(name + ".dcsize")
	b.I(isa.TEST, asm.R(isa.EBX), asm.R(isa.EBX))
	b.J(isa.JE, name+".dcemit")
	b.I(isa.INC, asm.R(isa.EDX))
	b.I(isa.SHR, asm.R(isa.EBX), asm.Imm(1))
	b.J(isa.JMP, name+".dcsize")
	b.Label(name + ".dcemit")
	b.I(isa.MOV, asm.R(isa.ECX), asm.R(isa.EAX)) // value = diff
	putSym()

	// AC coefficients in zig-zag order; ebp = z, ebx = run.
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(1))
	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(0))
	b.Label(name + ".ac")
	b.I(isa.MOV, asm.R(isa.EAX), asm.SymIdx(isa.SizeD, "zigtab", isa.EBP, 4, 0))
	b.I(isa.MOVSXW, asm.R(isa.EAX), asm.SymIdx(isa.SizeW, "qcoef", isa.EAX, 2, 0))
	b.I(isa.TEST, asm.R(isa.EAX), asm.R(isa.EAX))
	b.J(isa.JNE, name+".nonzero")
	b.I(isa.INC, asm.R(isa.EBX))
	b.J(isa.JMP, name+".acnext")

	b.Label(name + ".nonzero")
	// Flush runs of 16 zeros as ZRL symbols.
	b.Label(name + ".zrl")
	b.I(isa.CMP, asm.R(isa.EBX), asm.Imm(16))
	b.J(isa.JL, name+".emitac")
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(0xF0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	putSym()
	b.I(isa.SUB, asm.R(isa.EBX), asm.Imm(16))
	b.J(isa.JMP, name+".zrl")
	b.Label(name + ".emitac")
	// size of |v| into edx, then sym = run<<4 | size.
	b.I(isa.MOV, asm.R(isa.ECX), asm.R(isa.EAX))
	b.I(isa.TEST, asm.R(isa.ECX), asm.R(isa.ECX))
	b.J(isa.JNS, name+".acpos")
	b.I(isa.NEG, asm.R(isa.ECX))
	b.Label(name + ".acpos")
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(0))
	b.Label(name + ".acsize")
	b.I(isa.TEST, asm.R(isa.ECX), asm.R(isa.ECX))
	b.J(isa.JE, name+".acemit")
	b.I(isa.INC, asm.R(isa.EDX))
	b.I(isa.SHR, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JMP, name+".acsize")
	b.Label(name + ".acemit")
	b.I(isa.SHL, asm.R(isa.EBX), asm.Imm(4))
	b.I(isa.OR, asm.R(isa.EDX), asm.R(isa.EBX))
	b.I(isa.MOV, asm.R(isa.ECX), asm.R(isa.EAX))
	putSym()
	b.I(isa.MOV, asm.R(isa.EBX), asm.Imm(0))

	b.Label(name + ".acnext")
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(64))
	b.J(isa.JL, name+".ac")
	// Trailing zeros: EOB.
	b.I(isa.TEST, asm.R(isa.EBX), asm.R(isa.EBX))
	b.J(isa.JE, name+".done")
	b.I(isa.MOV, asm.R(isa.EDX), asm.Imm(0))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	putSym()
	b.Label(name + ".done")
	b.I(isa.MOV, asm.Sym(isa.SizeD, "spos", 0), asm.R(isa.EDI))
	b.Ret()
}

// emitExtractProc emits extract_block: copies the current 8x8 tile of
// curplane into blk32 (both int32).
func emitExtractProc(b *asm.Builder) {
	const name = "extract_block"
	b.Proc(name)
	// esi = curplane + ((by*8)*W + bx*8)*4
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "by", 0))
	b.I(isa.SHL, asm.R(isa.EAX), asm.Imm(3))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(jpgW))
	b.I(isa.MOV, asm.R(isa.ECX), asm.Sym(isa.SizeD, "bx", 0))
	b.I(isa.SHL, asm.R(isa.ECX), asm.Imm(3))
	b.I(isa.ADD, asm.R(isa.EAX), asm.R(isa.ECX))
	b.I(isa.SHL, asm.R(isa.EAX), asm.Imm(2))
	b.I(isa.ADD, asm.R(isa.EAX), asm.Sym(isa.SizeD, "curplane", 0))
	b.I(isa.MOV, asm.R(isa.ESI), asm.R(isa.EAX))
	b.I(isa.MOV, asm.R(isa.EDI), asm.ImmSym("blk32", 0))
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(8)) // row counter
	b.Label(name + ".row")
	for c := 0; c < 8; c++ {
		b.I(isa.MOV, asm.R(isa.EAX), asm.MemD(isa.ESI, int32(4*c)))
		b.I(isa.MOV, asm.MemD(isa.EDI, int32(4*c)), asm.R(isa.EAX))
	}
	b.I(isa.ADD, asm.R(isa.ESI), asm.Imm(4*jpgW))
	b.I(isa.ADD, asm.R(isa.EDI), asm.Imm(32))
	b.I(isa.DEC, asm.R(isa.EBP))
	b.J(isa.JNE, name+".row")
	b.Ret()
}

// emitBlockLoop emits main's triple loop over blocks and components,
// invoking perBlock() for the body (which may emit calls).
func emitBlockLoop(b *asm.Builder, perBlock func()) {
	b.I(isa.MOV, asm.Sym(isa.SizeD, "by", 0), asm.Imm(0))
	b.Label("byloop")
	b.I(isa.MOV, asm.Sym(isa.SizeD, "bx", 0), asm.Imm(0))
	b.Label("bxloop")
	b.I(isa.MOV, asm.Sym(isa.SizeD, "curcomp", 0), asm.Imm(0))
	b.Label("comploop")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "curcomp", 0))
	b.I(isa.MOV, asm.R(isa.EAX), asm.SymIdx(isa.SizeD, "planetab", isa.EAX, 4, 0))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "curplane", 0), asm.R(isa.EAX))

	perBlock()

	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "curcomp", 0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "curcomp", 0), asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(3))
	b.J(isa.JL, "comploop")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "bx", 0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "bx", 0), asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(jpgBlocksX))
	b.J(isa.JL, "bxloop")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Sym(isa.SizeD, "by", 0))
	b.I(isa.INC, asm.R(isa.EAX))
	b.I(isa.MOV, asm.Sym(isa.SizeD, "by", 0), asm.R(isa.EAX))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(jpgBlocksY))
	b.J(isa.JL, "byloop")
}
