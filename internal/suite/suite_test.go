package suite

import (
	"strings"
	"sync"
	"testing"

	"mmxdsp/internal/core"
)

func TestAllContainsThePapersNineteenPrograms(t *testing.T) {
	// The paper's nineteen programs plus the two sad versions added by the
	// motion-estimation extension.
	want := []string{
		"fft.c", "fft.fp", "fft.mmx",
		"fir.c", "fir.fp", "fir.mmx",
		"iir.c", "iir.fp", "iir.mmx",
		"matvec.c", "matvec.mmx",
		"sad.c", "sad.mmx",
		"jpeg.c", "jpeg.mmx",
		"image.c", "image.mmx",
		"g722.c", "g722.mmx",
		"radar.c", "radar.mmx",
	}
	names := Names()
	if len(names) != len(want) {
		t.Errorf("suite has %d programs, want %d: %v", len(names), len(want), names)
	}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("suite missing %s", w)
		}
	}
	// Names() must be sorted for stable output.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted at %d: %s >= %s", i, names[i-1], names[i])
		}
	}
}

func TestByName(t *testing.T) {
	b, ok := ByName("matvec.mmx")
	if !ok || b.Base != "matvec" || b.Version != core.VersionMMX {
		t.Errorf("ByName(matvec.mmx) = %+v, %v", b, ok)
	}
	if _, ok := ByName("nope.c"); ok {
		t.Error("ByName must reject unknown programs")
	}
}

// TestEveryProgramAssembles builds all 21 programs (without running
// them) and sanity-checks the linked images and listings.
func TestEveryProgramAssembles(t *testing.T) {
	for _, bench := range All() {
		prog, err := bench.Build()
		if err != nil {
			t.Errorf("%s: build failed: %v", bench.Name(), err)
			continue
		}
		if len(prog.Insts) < 10 {
			t.Errorf("%s: only %d instructions", bench.Name(), len(prog.Insts))
		}
		if len(prog.Procs) == 0 {
			t.Errorf("%s: no procedures recorded", bench.Name())
		}
		if prog.MemSize < 0x20000 {
			t.Errorf("%s: image size %d suspiciously small", bench.Name(), prog.MemSize)
		}
		l := prog.Listing()
		if !strings.Contains(l, "main:") {
			t.Errorf("%s: listing missing main label", bench.Name())
		}
		if !strings.Contains(l, "halt") {
			t.Errorf("%s: listing missing halt", bench.Name())
		}
		// MMX versions must actually contain MMX instructions.
		if bench.Version == core.VersionMMX && !strings.Contains(l, "movq") {
			t.Errorf("%s: no MMX instructions in listing", bench.Name())
		}
	}
}

// TestRegistryMemoizationAndDefensiveCopies pins the registry rework: the
// sorted slice is built once, and every accessor returns copies the caller
// can mutate freely.
func TestRegistryMemoizationAndDefensiveCopies(t *testing.T) {
	a, b := All(), All()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("All() sizes: %d vs %d", len(a), len(b))
	}
	// Mutating a returned slice must not leak into the registry.
	a[0] = core.Benchmark{Base: "clobbered", Version: "x"}
	if All()[0].Base == "clobbered" {
		t.Error("All() exposed the shared registry slice")
	}
	names := Names()
	names[0] = "clobbered"
	if Names()[0] == "clobbered" {
		t.Error("Names() exposed the shared registry slice")
	}
	// ByName is a map lookup over the same memoized registry.
	if _, ok := ByName("clobbered"); ok {
		t.Error("registry contaminated by caller mutation")
	}
}

// TestRegistryConcurrentAccess exercises first-touch memoization and all
// accessors from many goroutines (meaningful under -race).
func TestRegistryConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if len(All()) == 0 || len(Names()) == 0 {
				t.Error("empty registry")
			}
			if _, ok := ByName("fft.mmx"); !ok {
				t.Error("fft.mmx missing")
			}
		}()
	}
	wg.Wait()
}
