// Cancellation-path tests: Options.Ctx must abort runs in flight with
// bounded latency (through the VM poll hook) and make RunAll skip
// benchmarks that have not started yet.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/isa"
)

// spinBench is a synthetic non-terminating program: without cancellation
// it would burn the full default instruction budget (~2^31 instructions).
func spinBench(name string) Benchmark {
	return Benchmark{
		Base: name, Version: VersionC, Kind: KindKernel, Descr: "synthetic spin",
		Build: func() (*asm.Program, error) {
			b := asm.NewBuilder(name)
			b.Proc("main")
			b.Label("spin")
			b.I(isa.ADD, asm.R(isa.EAX), asm.Imm(1))
			b.J(isa.JMP, "spin")
			return b.Link()
		},
	}
}

func TestRunCtxCancelAbortsMidRun(t *testing.T) {
	for _, dispatch := range []string{"block", "predecode", "generic"} {
		t.Run(dispatch, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := Run(spinBench("spin"), Options{SkipCheck: true, Dispatch: dispatch, Ctx: ctx})
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("cancelled spin run succeeded")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			// The acceptance bound is 250ms end to end; the poll hook fires
			// every vm.DefaultPollInterval instructions, which is microseconds
			// of simulated work.
			if elapsed > 250*time.Millisecond {
				t.Fatalf("cancelled run took %v, want < 250ms", elapsed)
			}
		})
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(spinBench("spin"), Options{SkipCheck: true, Ctx: ctx})
	if err == nil {
		t.Fatal("pre-cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("pre-cancelled run took %v", elapsed)
	}
}

func TestRunDeadlineSurfacesDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := Run(spinBench("spin"), Options{SkipCheck: true, Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestRunAllCtxSkipsPending pins the runner's first-caller cancellation
// contract: benchmarks in flight abort through the poll hook, and
// benchmarks that have not started are skipped without running at all.
func TestRunAllCtxSkipsPending(t *testing.T) {
	benches := make([]Benchmark, 6)
	for i := range benches {
		benches[i] = spinBench("spin" + string(rune('a'+i)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunAll(benches, Options{SkipCheck: true, Parallelism: 2, Ctx: ctx})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled RunAll succeeded")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not a *RunError", err)
	}
	if len(re.Failures) != len(benches) {
		t.Fatalf("%d failures, want %d (all spins fail under cancellation)", len(re.Failures), len(benches))
	}
	var skipped, aborted int
	for _, f := range re.Failures {
		if !errors.Is(f.Err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", f.Name, f.Err)
		}
		if strings.Contains(f.Err.Error(), "skipped") {
			skipped++
		} else {
			aborted++
		}
	}
	// Two workers spin until the cancel; the other four jobs are handed out
	// afterwards and must be skipped without executing.
	if skipped < len(benches)-2 {
		t.Errorf("only %d benchmarks skipped, want >= %d (aborted: %d)", skipped, len(benches)-2, aborted)
	}
	if elapsed > time.Second {
		t.Errorf("cancelled RunAll took %v", elapsed)
	}
}

// TestRunCompiledMatchesRun pins the compile-once path the server cache
// uses: RunCompiled on a shared Compiled artifact must produce reports
// byte-identical to independent Run calls, run after run.
func TestRunCompiledMatchesRun(t *testing.T) {
	cb, mb := testBenches(64)
	for _, bench := range []Benchmark{cb, mb} {
		direct, err := Run(bench, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: direct run: %v", bench.Name(), err)
		}
		want, err := json.Marshal(direct.Report)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := CompileBenchmark(bench)
		if err != nil {
			t.Fatalf("%s: compile: %v", bench.Name(), err)
		}
		for i := 0; i < 3; i++ {
			res, err := RunCompiled(comp, DefaultOptions())
			if err != nil {
				t.Fatalf("%s: cached run %d: %v", bench.Name(), i, err)
			}
			got, err := json.Marshal(res.Report)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s: cached run %d report drifted:\n got %s\nwant %s",
					bench.Name(), i, got, want)
			}
		}
	}
}
