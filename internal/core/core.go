// Package core is the paper's contribution as a reusable API: a benchmark
// suite abstraction (programs in C-only, FP-library and MMX-library
// versions), a runner that executes a program on the simulated
// Pentium-with-MMX and profiles it VTune-style, and a comparison engine
// that produces every table and figure of the evaluation.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"time"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/vm"
)

// Versions of a benchmark, matching the paper's suffixes.
const (
	VersionC   = "c"   // compiled scalar code
	VersionFP  = "fp"  // scalar code calling the optimized FP assembly library
	VersionMMX = "mmx" // scalar code calling the MMX assembly library
)

// Kinds of benchmark.
const (
	KindKernel      = "kernel"
	KindApplication = "application"
)

// Benchmark is one program version in the suite.
type Benchmark struct {
	Base    string // benchmark family: "fft", "fir", ..., "jpeg"
	Version string // VersionC, VersionFP or VersionMMX
	Kind    string // KindKernel or KindApplication
	Descr   string // Table 1 description
	// Build assembles the program (including workload data placement).
	Build func() (*asm.Program, error)
	// Check validates the program's outputs on the halted machine against
	// the pure-Go reference implementation. May be nil.
	Check func(c *vm.CPU) error
}

// Name returns the paper-style program name, e.g. "fft.mmx". Versionless
// benchmarks (user-submitted programs served through /asm) are named by
// Base alone.
func (b Benchmark) Name() string {
	if b.Version == "" {
		return b.Base
	}
	return b.Base + "." + b.Version
}

// Expect compares the len(want) elements of a halted program's output
// region sym with a reference, each within tol: the comparison the suite's
// Check functions make.
func Expect[T uint8 | int16 | int32 | float32 | float64](c *vm.CPU, sym string, want []T, tol float64, context string) error {
	got := make([]T, len(want))
	raw, ok := c.Mem.ReadBytes(c.Prog.Addr(sym), binary.Size(got))
	if !ok || binary.Read(bytes.NewReader(raw), binary.LittleEndian, got) != nil {
		return fmt.Errorf("%s: cannot read %q", context, sym)
	}
	for i := range want {
		if math.Abs(float64(got[i])-float64(want[i])) > tol {
			return fmt.Errorf("%s: %s[%d] = %v, want %v", context, sym, i, got[i], want[i])
		}
	}
	return nil
}

// DispatchTrace names the one interpreter: the dispatch loop with runtime
// superblock formation and register caching (see vm/trace.go). Reports do
// not depend on the interpreter, so Options.Dispatch and the service's
// dispatch fields only name it.
const DispatchTrace = "trace"

// CheckDispatch validates a dispatch name. Every surface that takes one
// (Options, the HTTP APIs, campaign specs, the CLIs) validates through it,
// so they accept the same names and reject the rest with the same text.
// The names besides "trace" named interpreters since folded into trace
// dispatch; they stay accepted so existing clients, scripts and campaign
// specs keep working, and all of them run the same code.
func CheckDispatch(name string) error {
	switch name {
	case "", DispatchTrace, "generic", "auto", "block", "predecode":
		return nil
	}
	return fmt.Errorf("unknown dispatch mode %q (want trace, generic, auto, block or predecode)", name)
}

// Options configures a run.
type Options struct {
	// Pentium is the timing-model configuration. nil selects
	// pentium.DefaultConfig(); a non-nil config is used verbatim, so an
	// all-zero ablation config (free emms, ISA-default everything else)
	// is honored rather than silently replaced by the defaults.
	Pentium *pentium.Config
	// PerfectCache disables the cache model (ablation).
	PerfectCache bool
	// Cache overrides the memory-hierarchy geometry and penalties; nil
	// selects the standard Pentium hierarchy. Ignored when PerfectCache
	// is set. An invalid spec fails the run with its Validate error.
	Cache *CacheSpec
	// MaxInstrs bounds execution; 0 selects a generous default and
	// negative values are rejected by Run.
	MaxInstrs int64
	// SkipCheck skips output validation.
	SkipCheck bool
	// PartialOnBudget turns instruction-budget exhaustion from a failure
	// into a reportable outcome: the run returns a Result whose Report
	// covers the instructions retired before the budget hit, with
	// Result.BudgetExhausted set (and output validation skipped — a
	// truncated run has nothing meaningful to check). This is how the
	// service caps user-submitted programs without hanging on infinite
	// loops.
	PartialOnBudget bool
	// Trace, when non-nil, receives a line per retired measured
	// instruction, up to TraceLimit lines (0 = unlimited). A write error
	// stops tracing and fails the run. Tracing forces RunAll sequential.
	Trace      io.Writer
	TraceLimit int
	// Parallelism bounds the RunAll worker pool; 0 (or negative) selects
	// runtime.GOMAXPROCS(0). Run ignores it.
	Parallelism int
	// Progress, when non-nil, is invoked by RunAll as each benchmark
	// retires (in completion order, serialized). Run ignores it.
	Progress func(RunStatus)
	// Dispatch names the interpreter: "" or any name CheckDispatch
	// accepts, all of which run trace dispatch. Run rejects unknown
	// values.
	Dispatch string
	// Ctx, when non-nil, cancels work in flight: Run installs a VM poll
	// hook that aborts the interpreter within vm.DefaultPollInterval
	// retired instructions of cancellation (the returned error wraps
	// ctx.Err()), and RunAll additionally skips benchmarks that have not
	// started yet. nil means no cancellation.
	Ctx context.Context
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	cfg := pentium.DefaultConfig()
	return Options{Pentium: &cfg}
}

// BlockStats describes how a run's retired events were priced. It is
// diagnostic host-side data, deliberately separate from Report (reports are
// byte-identical across the VM's execution paths).
type BlockStats struct {
	// Compiled is the number of basic blocks the program compiled into.
	Compiled int
	// FastEvents and PerEvents split the retired events between region
	// schedules (blocks, trace iterations and side exits priced by
	// pentium.RetireChain) and the per-event path (terminators, declined
	// regions, or entire runs on the per-instruction loop).
	FastEvents uint64
	PerEvents  uint64
}

// FastPct returns the percentage of retired events priced by a region
// schedule.
func (s BlockStats) FastPct() float64 {
	total := s.FastEvents + s.PerEvents
	if total == 0 {
		return 0
	}
	return 100 * float64(s.FastEvents) / float64(total)
}

// Result is the outcome of one benchmark run.
type Result struct {
	Benchmark Benchmark
	Report    *profile.Report
	// Wall is how long the simulation took on the host: from the start of
	// the VM run until the interpreter has halted and the timing model has
	// drained every retired instruction (see vm.CPU.Run). It excludes
	// Build, Check, report assembly and any queueing before the run.
	Wall time.Duration
	// Blocks reports region-schedule coverage for the run.
	Blocks BlockStats
	// Traces reports trace-dispatch behavior (only Executed is set for a
	// traced run, which takes the per-instruction loop): superblocks
	// formed, full iterations, side exits.
	Traces vm.TraceStats
	// BudgetExhausted marks a partial run: the instruction budget expired
	// before HALT and Options.PartialOnBudget let it return a Result
	// anyway. The Report covers only the retired prefix.
	BudgetExhausted bool
}

// InstrsPerSec returns the host simulation throughput in retired
// (measured-region) instructions per wall-clock second.
func (r *Result) InstrsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Report.DynamicInstructions) / r.Wall.Seconds()
}

// Compiled is a benchmark built and compiled once: the linked program and
// its vm.Code (every basic block lowered to micro-ops). Both are immutable
// after construction, so one Compiled may back any number of concurrent
// runs — this is the artifact a serving layer caches to amortize Build and
// compilation across repeat requests.
type Compiled struct {
	Benchmark Benchmark
	Prog      *asm.Program
	Code      *vm.Code
}

// PanicError reports a panic raised while building or running one
// benchmark — in its Build or Check, the interpreter or the timing model —
// recovered so that one broken program fails its own run instead of the
// whole process.
type PanicError struct {
	Program string
	Value   any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error names the program and the panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: %s: panic: %v", e.Program, e.Value)
}

// recoverRun turns a panic in the calling function into a *PanicError in
// *err. It must be deferred directly.
func recoverRun(name string, err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Program: name, Value: r, Stack: debug.Stack()}
	}
}

// CompileBenchmark builds the benchmark's program (including workload data
// placement) and compiles it into shareable vm.Code. A panic in Build
// comes back as a *PanicError.
func CompileBenchmark(b Benchmark) (comp *Compiled, err error) {
	defer recoverRun(b.Name(), &err)
	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: build %s: %w", b.Name(), err)
	}
	return &Compiled{Benchmark: b, Prog: prog, Code: vm.Compile(prog)}, nil
}

// Run builds, executes, profiles and validates one benchmark. It is
// CompileBenchmark followed by RunCompiled; callers that run the same
// benchmark repeatedly should compile once and reuse the artifact.
func Run(b Benchmark, opt Options) (*Result, error) {
	comp, err := CompileBenchmark(b)
	if err != nil {
		return nil, err
	}
	return RunCompiled(comp, opt)
}

// RunCompiled executes, profiles and validates one prebuilt benchmark.
// The Compiled artifact is only read, never written: every run gets a
// private CPU, memory image, timing model and collector. A panic anywhere
// in the run comes back as a *PanicError rather than unwinding the caller.
func RunCompiled(comp *Compiled, opt Options) (res *Result, err error) {
	b := comp.Benchmark
	defer recoverRun(b.Name(), &err)
	cfg := pentium.DefaultConfig()
	if opt.Pentium != nil {
		cfg = *opt.Pentium
	}
	if opt.MaxInstrs < 0 {
		return nil, fmt.Errorf("core: run %s: negative MaxInstrs %d", b.Name(), opt.MaxInstrs)
	}
	if opt.MaxInstrs == 0 {
		opt.MaxInstrs = 1 << 31
	}
	model := pentium.New(cfg)
	model.Bind(comp.Prog)
	col := profile.NewCollector(comp.Prog, model)
	cpu := vm.NewWithCode(comp.Code)
	cpu.Obs = col
	if opt.Ctx != nil {
		cpu.Poll = opt.Ctx.Err
	}
	if err := CheckDispatch(opt.Dispatch); err != nil {
		return nil, fmt.Errorf("core: run %s: %w", b.Name(), err)
	}
	cpu.Traces = true
	var tracer *profile.Tracer
	if opt.Trace != nil {
		// A Tee is a plain per-event observer, so a traced run takes the
		// per-instruction loop.
		tracer = &profile.Tracer{W: opt.Trace, Limit: opt.TraceLimit, MeasuredOnly: true}
		cpu.Obs = profile.Tee(col, tracer)
	}
	if !opt.PerfectCache {
		if opt.Cache != nil {
			hier, err := opt.Cache.Hierarchy()
			if err != nil {
				return nil, fmt.Errorf("core: run %s: cache spec: %w", b.Name(), err)
			}
			cpu.Hier = hier
		} else {
			cpu.Hier = mem.NewHierarchy()
		}
	}
	start := time.Now()
	runErr := cpu.Run(opt.MaxInstrs)
	wall := time.Since(start)
	budgetHit := false
	if runErr != nil {
		if opt.PartialOnBudget && errors.Is(runErr, vm.ErrBudget) {
			budgetHit = true
		} else {
			return nil, fmt.Errorf("core: run %s: %w", b.Name(), runErr)
		}
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			return nil, fmt.Errorf("core: trace %s: %w", b.Name(), err)
		}
	}
	if b.Check != nil && !opt.SkipCheck && !budgetHit {
		if err := b.Check(cpu); err != nil {
			return nil, fmt.Errorf("core: validate %s: %w", b.Name(), err)
		}
	}
	rep := col.Report(b.Name())
	if cpu.Hier != nil {
		rep.CacheAccesses = cpu.Hier.Stats.Accesses
		rep.L1Misses = cpu.Hier.Stats.L1Misses
		rep.L2Misses = cpu.Hier.Stats.L2Misses
	}
	fast, perEvent := col.BlockStats()
	blocks := BlockStats{Compiled: cpu.CompiledBlocks(), FastEvents: fast, PerEvents: perEvent}
	return &Result{
		Benchmark: b, Report: rep, Wall: wall, Blocks: blocks, Traces: cpu.TraceStats(),
		BudgetExhausted: budgetHit,
	}, nil
}

// CompileProgram wraps an already-linked program — typically one assembled
// from user-submitted source — as a Compiled artifact. The benchmark shell
// is versionless (Name() == name), has no reference Check, and carries the
// program as a constant Build so the artifact behaves exactly like a
// suite-compiled one everywhere downstream.
func CompileProgram(name string, prog *asm.Program) *Compiled {
	b := Benchmark{
		Base:  name,
		Kind:  KindApplication,
		Descr: "user-submitted program",
		Build: func() (*asm.Program, error) { return prog, nil },
	}
	return &Compiled{Benchmark: b, Prog: prog, Code: vm.Compile(prog)}
}
