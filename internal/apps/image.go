package apps

import (
	"fmt"
	"sync"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/emit"
	"mmxdsp/internal/imgproc"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/mmxlib"
	"mmxdsp/internal/synth"
	"mmxdsp/internal/vm"
)

// Paper workload: "Dimming and switching the colors of a Windows bitmap.
// 480x640 Red-Green-Blue (RGB) image in which each pixel is represented by
// 24 bits. Essentially vector addition and multiplication."
const (
	imgW     = 640
	imgH     = 480
	imgBytes = 3 * imgW * imgH // 921600, a multiple of 24

	// Dim to 3/4 brightness, then push red up and blue down.
	imgDimNum = 3
	imgDimDen = 4
	imgDR     = 40
	imgDG     = 0
	imgDB     = -55
)

func imageInput() []uint8 { return synth.ImageRGB(imgW, imgH, 0x1A6E) }

// imageExpected is the reference output image. It is computed once per
// process (the input synthesis and pipeline cost more than simulating
// image.mmx); the checks only read it.
var imageExpected = sync.OnceValue(func() []uint8 {
	return imgproc.Pipeline(imageInput(),
		imgproc.DimParams{Num: imgDimNum, Den: imgDimDen},
		imgproc.SwitchParams{DR: imgDR, DG: imgDG, DB: imgDB})
})

func imageCheck(c *vm.CPU, context string) error {
	want := imageExpected()
	got, ok := c.Mem.ReadBytes(c.Prog.Addr("out"), len(want))
	if !ok {
		return fmt.Errorf("%s: cannot read output", context)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: byte %d = %d, want %d", context, i, got[i], want[i])
		}
	}
	return nil
}

// Image returns the image.c and image.mmx benchmarks.
func Image() []core.Benchmark {
	descr := "640x480 24-bit RGB dimming (vector multiply) and color switch (vector add)"
	return []core.Benchmark{
		{
			Base: "image", Version: core.VersionC, Kind: core.KindApplication, Descr: descr,
			Build: buildImageC,
			Check: func(c *vm.CPU) error { return imageCheck(c, "image.c") },
		},
		{
			Base: "image", Version: core.VersionMMX, Kind: core.KindApplication, Descr: descr,
			Build: buildImageMMX,
			Check: func(c *vm.CPU) error { return imageCheck(c, "image.mmx") },
		},
	}
}

// buildImageC processes one byte at a time with scalar integer arithmetic:
// an imul per pixel component for the dim, a saturating add (compare and
// branch) for the color switch.
func buildImageC() (*asm.Program, error) {
	b := asm.NewBuilder("image.c")
	b.Bytes("img", imageInput())
	b.Reserve("tmp", imgBytes)
	b.Reserve("out", imgBytes)
	// Per-channel deltas repeated for indexing by i%3 (computed cheaply
	// with a rotating counter).
	b.Dwords("deltas", []int32{imgDR, imgDG, imgDB})

	b.Proc("main")
	b.I(isa.PROFON)

	// Pass 1: tmp[i] = img[i] * num / den.
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0))
	b.Label("dim")
	b.I(isa.MOVZXB, asm.R(isa.EAX), asm.SymIdx(isa.SizeB, "img", isa.ECX, 1, 0))
	b.I(isa.IMUL, asm.R(isa.EAX), asm.Imm(imgDimNum))
	b.I(isa.SHR, asm.R(isa.EAX), asm.Imm(2)) // den = 4
	b.I(isa.MOV, asm.SymIdx(isa.SizeB, "tmp", isa.ECX, 1, 0), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(imgBytes))
	b.J(isa.JL, "dim")

	// Pass 2: out[i] = sat(tmp[i] + delta[i%3]).
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(0)) // byte index
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0)) // channel counter 0..2
	b.Label("switch")
	b.I(isa.MOVZXB, asm.R(isa.EAX), asm.SymIdx(isa.SizeB, "tmp", isa.ECX, 1, 0))
	b.I(isa.ADD, asm.R(isa.EAX), asm.SymIdx(isa.SizeD, "deltas", isa.EBP, 4, 0))
	b.I(isa.CMP, asm.R(isa.EAX), asm.Imm(255))
	b.J(isa.JLE, "nohi")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(255))
	b.Label("nohi")
	b.I(isa.TEST, asm.R(isa.EAX), asm.R(isa.EAX))
	b.J(isa.JNS, "nolo")
	b.I(isa.MOV, asm.R(isa.EAX), asm.Imm(0))
	b.Label("nolo")
	b.I(isa.MOV, asm.SymIdx(isa.SizeB, "out", isa.ECX, 1, 0), asm.R(isa.EAX))
	b.I(isa.INC, asm.R(isa.EBP))
	b.I(isa.CMP, asm.R(isa.EBP), asm.Imm(3))
	b.J(isa.JL, "nowrap")
	b.I(isa.MOV, asm.R(isa.EBP), asm.Imm(0))
	b.Label("nowrap")
	b.I(isa.INC, asm.R(isa.ECX))
	b.I(isa.CMP, asm.R(isa.ECX), asm.Imm(imgBytes))
	b.J(isa.JL, "switch")

	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}

// buildImageMMX: two library calls over the whole buffer — 8 bytes per
// iteration, properly aligned data, "automatic" packing via quadword loads
// and stores. This is the paper's best-suited application (5.5x).
func buildImageMMX() (*asm.Program, error) {
	b := asm.NewBuilder("image.mmx")
	mmxlib.EmitImgScale8(b)
	mmxlib.EmitImgAdd8(b)
	addM, subM := mmxlib.ColorMasks(imgDR, imgDG, imgDB)
	b.Bytes("img", imageInput())
	b.Bytes("addm", addM)
	b.Bytes("subm", subM)
	b.Reserve("tmp", imgBytes)
	b.Reserve("out", imgBytes)

	b.Entry()
	b.Proc("main")
	b.I(isa.PROFON)
	emit.Call(b, "nsImgScale8", asm.ImmSym("tmp", 0), asm.ImmSym("img", 0),
		asm.Imm(imgBytes), asm.Imm(imgDimNum*256/imgDimDen))
	emit.Call(b, "nsImgAdd8", asm.ImmSym("out", 0), asm.ImmSym("tmp", 0),
		asm.Imm(imgBytes), asm.ImmSym("addm", 0), asm.ImmSym("subm", 0))
	b.I(isa.EMMS)
	b.I(isa.PROFOFF)
	b.I(isa.HALT)
	return b.Link()
}
