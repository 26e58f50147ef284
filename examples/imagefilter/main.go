// Imagefilter: the paper's image benchmark as a user would run it — dim
// and color-switch a 640x480 bitmap with the pure-Go library, then run the
// same work through the simulated MMX pipeline (image.c vs image.mmx) and
// compare outputs and cycle counts. Writes before/after BMP files.
package main

import (
	"fmt"
	"log"
	"os"

	"mmxdsp/internal/apps"
	"mmxdsp/internal/bmp"
	"mmxdsp/internal/core"
	"mmxdsp/internal/imgproc"
	"mmxdsp/internal/synth"
)

func main() {
	const w, h = 640, 480
	pix := synth.ImageRGB(w, h, 0x1A6E)
	img, err := bmp.FromRGB(w, h, pix)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("input.bmp", bmp.Encode(img), 0o644); err != nil {
		log.Fatal(err)
	}

	// Pure-Go processing: the reference the simulated versions are checked
	// against.
	out := imgproc.Pipeline(pix,
		imgproc.DimParams{Num: 3, Den: 4},
		imgproc.SwitchParams{DR: 40, DG: 0, DB: -55})
	outImg, _ := bmp.FromRGB(w, h, out)
	if err := os.WriteFile("output.bmp", bmp.Encode(outImg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote input.bmp and output.bmp (dimmed, red-shifted)")

	// The same pixels through the simulated Pentium, both versions.
	for _, bench := range apps.Image() {
		res, err := core.Run(bench, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Report
		fmt.Printf("%-10s %12d cycles  %10d instructions  %5.1f%% MMX\n",
			rep.Name, rep.Cycles, rep.DynamicInstructions, rep.PercentMMX())
	}
	fmt.Println("(both versions validated byte-for-byte against imgproc.Pipeline)")
}
