package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"time"
)

// Host-speed reference.
//
// The host this benchmark was built on is a 2-vCPU guest whose speed moves
// with its neighbours' load: the same suite pass ran anywhere between 43
// and 90 M instr/s, in periods lasting from tens of seconds to minutes.
// Raw host time therefore changes by up to 2x between two runs of the
// same code, which no number of repeats inside one run removes.
//
// So every timed interval behind an end-to-end metric is also measured in
// reference time: the interval is multiplied by refNominal over the time a
// fixed reference workload takes right before and right after it (for
// serve_warm's warm loop, by a power of that factor: see warmElasticity). The
// reference is a pass of Go's regexp engine over fixed text. It is an
// interpreter, like the simulator, and over 128 suite passes spanning both
// host states its speed moved with the simulator's at an elasticity of
// 1.0 (correlation 0.92); plain compression or sorting loops moved only
// half as much. It depends on no code in this repository, and callers run
// runtime.GC() before every pass, so the garbage the measured code leaves
// is not collected inside the pass that scales it. A change to the
// simulator or the service therefore moves the scaled figures as it moves
// the raw ones, while the host's drift moves the interval and the
// reference together. The ledger records the raw figures beside the
// scaled ones.

// refNominal is the reference pass's time on a quiet 2-vCPU Intel Xeon
// guest (go1.24). It only fixes the unit: scaled figures read as host time
// on that quiet host.
const refNominal = 2300 * time.Microsecond

// refPattern matches MMX-flavoured tokens followed by a number.
var refPattern = regexp.MustCompile(`(p?mmx|pack|emms)[a-z]*\s+\d+`)

// hostRef is the reference workload and its fixed input.
type hostRef struct {
	text []byte
	sink int
}

func newHostRef() *hostRef {
	r := rand.New(rand.NewSource(1))
	words := []string{"pack", "unpack", "emms", "pmaddwd", "fir", "iir", "fft", "jpeg", "mmx", "radar"}
	var text bytes.Buffer
	for text.Len() < 24<<10 {
		text.WriteString(words[r.Intn(len(words))])
		text.WriteByte(" \n,."[r.Intn(4)])
		if r.Intn(5) == 0 {
			fmt.Fprintf(&text, "%d ", r.Intn(1000))
		}
	}
	return &hostRef{text: text.Bytes()}
}

// run times one pass of the reference workload.
func (h *hostRef) run() time.Duration {
	start := time.Now()
	h.sink += len(refPattern.FindAllIndex(h.text, -1))
	return time.Since(start)
}

// scale converts host time measured between the reference passes before
// and after it into reference time.
func scale(before, after time.Duration) float64 {
	return float64(2*refNominal) / float64(before+after)
}
