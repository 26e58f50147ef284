package vm_test

import (
	"fmt"
	"sync"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/vm"
)

// callLoopProg is a counted loop around a call to a leaf that does
// read-modify-write memory work: traces inline the call and return.
func callLoopProg() *asm.Program {
	b := asm.NewBuilder("callloop")
	b.Dwords("data", make([]int32, 64))
	b.Proc("main")
	b.I(isa.MOV, asm.R(isa.ECX), asm.Imm(2000))
	b.I(isa.MOV, asm.R(isa.ESI), asm.ImmSym("data", 0))
	b.Label("loop")
	b.Call("leaf")
	b.I(isa.SUB, asm.R(isa.ECX), asm.Imm(1))
	b.J(isa.JNE, "loop")
	b.I(isa.HALT)
	b.Proc("leaf")
	b.I(isa.MOV, asm.R(isa.EAX), asm.R(isa.ECX))
	b.I(isa.AND, asm.R(isa.EAX), asm.Imm(63))
	b.I(isa.ADD, asm.MemIdx(isa.SizeD, isa.ESI, isa.EAX, 4, 0), asm.R(isa.ECX))
	b.Ret()
	return b.MustLink()
}

// TestSharedCodeConcurrentRuns runs one compiled Code on several
// goroutines at once with trace formation on, each CPU with its own
// collector and cache hierarchy. Every CPU reads the shared block
// micro-ops, trace formation copies them, and fork guards mutate their
// trace's own copies, so the runs must neither race (scripts/check.sh runs
// this test under -race) nor differ from a solo run.
func TestSharedCodeConcurrentRuns(t *testing.T) {
	const workers = 4
	for _, prog := range []*asm.Program{traceTreeProg(64), traceLoopProg(), callLoopProg()} {
		t.Run(prog.Name, func(t *testing.T) {
			code := vm.Compile(prog)
			solo, err := runMode(prog, code, "trace")
			if err != nil {
				t.Fatal(err)
			}
			if solo.traces.Formed == 0 {
				t.Fatalf("solo run formed no trace: %+v", solo.traces)
			}
			outs := make([]*runOutcome, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[w], errs[w] = runMode(prog, code, "trace")
				}()
			}
			wg.Wait()
			for w := range workers {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				compareOutcomes(t, "solo", solo, fmt.Sprintf("worker %d", w), outs[w])
				if outs[w].traces != solo.traces {
					t.Errorf("worker %d trace stats %+v, solo %+v", w, outs[w].traces, solo.traces)
				}
			}
		})
	}
}
