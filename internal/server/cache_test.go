// White-box tests for the compiled-program LRU: single-flight compilation,
// eviction order, error eviction, and the correctness property that a
// cache hit is observationally identical to a cold compile — same
// registers, same memory, same report bytes — across randomized configs.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/isa"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

func key(s string) string { return s }

func compileCounter(n *atomic.Int64) func() (*core.Compiled, error) {
	return func() (*core.Compiled, error) {
		n.Add(1)
		return &core.Compiled{}, nil
	}
}

func TestCacheHitAndMissCounting(t *testing.T) {
	c := newCodeCache(4)
	var compiles atomic.Int64
	for i := 0; i < 3; i++ {
		comp, hit, err := c.get(key("a"), compileCounter(&compiles))
		if err != nil || comp == nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if wantHit := i > 0; hit != wantHit {
			t.Errorf("get %d: hit=%t, want %t", i, hit, wantHit)
		}
	}
	if n := compiles.Load(); n != 1 {
		t.Errorf("compile ran %d times, want 1", n)
	}
	s := c.stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate %f, want 2/3", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCodeCache(2)
	var compiles atomic.Int64
	fill := func(k string) {
		if _, _, err := c.get(key(k), compileCounter(&compiles)); err != nil {
			t.Fatal(err)
		}
	}
	fill("a")
	fill("b")
	fill("a") // refresh a: LRU order is now [a, b]
	fill("c") // evicts b
	if s := c.stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("after eviction: %+v", s)
	}
	before := compiles.Load()
	fill("a") // must still be resident
	if compiles.Load() != before {
		t.Error("a was evicted; expected b (the least recently used)")
	}
	fill("b") // recompiles
	if compiles.Load() != before+1 {
		t.Error("b came back without a compile")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCodeCache(4)
	var compiles atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.get(key("shared"), compileCounter(&compiles)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Errorf("concurrent gets compiled %d times, want 1 (single-flight)", n)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := newCodeCache(4)
	calls := 0
	failing := func() (*core.Compiled, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient build failure")
		}
		return &core.Compiled{}, nil
	}
	if _, _, err := c.get(key("x"), failing); err == nil {
		t.Fatal("first get did not surface the build error")
	}
	comp, _, err := c.get(key("x"), failing)
	if err != nil || comp == nil {
		t.Fatalf("second get: %v (errors must not be cached)", err)
	}
	if calls != 2 {
		t.Errorf("compile ran %d times, want 2", calls)
	}
}

// TestSharedCodeRunsAreIdentical is the vm-level half of the cache
// correctness property: running a program on a CPU compiled privately
// (vm.New) and on CPUs sharing one vm.Code (vm.NewWithCode, the cache
// path) must leave identical registers and memory.
func TestSharedCodeRunsAreIdentical(t *testing.T) {
	prog, err := asm.ParseSource("mix", `
.words v 3,-7,11,19,23,-2,5,8
.reserve out 16
.proc main
.entry
	mov ecx, 0
	mov eax, 0
loop:
	movsx.w ebx, word [v+ecx*2]
	imul ebx, ebx
	add eax, ebx
	add ecx, 1
	cmp ecx, 8
	jl loop
	mov dword [out], eax
	movq mm0, qword [v]
	paddw mm0, qword [v+8]
	movq qword [out+8], mm0
	emms
	halt
`)
	if err != nil {
		t.Fatalf("ParseSource: %v", err)
	}
	run := func(cpu *vm.CPU) *vm.CPU {
		t.Helper()
		if err := cpu.Run(1 << 20); err != nil {
			t.Fatalf("run: %v", err)
		}
		return cpu
	}
	private := run(vm.New(prog))
	code := vm.Compile(prog)
	shared1 := run(vm.NewWithCode(code))
	shared2 := run(vm.NewWithCode(code))

	for _, cpu := range []*vm.CPU{shared1, shared2} {
		for _, r := range []isa.Reg{isa.EAX, isa.EBX, isa.ECX, isa.EDX, isa.ESI, isa.EDI} {
			if got, want := cpu.GPR(r), private.GPR(r); got != want {
				t.Errorf("%v = %#x on shared code, want %#x", r, got, want)
			}
		}
		if !bytes.Equal(cpu.Mem.Bytes(), private.Mem.Bytes()) {
			t.Error("memory image differs between shared-code and private runs")
		}
	}
}

// TestCachePropertyRandomizedConfigs: for randomized ablation configs, a
// warm-cache run must be byte-identical to both its own cold run and a
// cache-bypassing direct core.Run.
func TestCachePropertyRandomizedConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep; skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(991))
	bench, ok := suite.ByName("fir.mmx")
	if !ok {
		t.Fatal("fir.mmx missing from the suite")
	}
	dispatches := []string{"block", "predecode", "generic"}
	for trial := 0; trial < 6; trial++ {
		emms := rng.Intn(100)
		req := &RunRequest{
			Program:   "fir.mmx",
			Dispatch:  dispatches[rng.Intn(len(dispatches))],
			SkipCheck: true,
			Config: &ConfigOverride{
				MispredictPenalty: rng.Intn(20),
				DisablePairing:    rng.Intn(2) == 0,
				DisableBTB:        rng.Intn(2) == 0,
				EmmsLatency:       &emms,
				MMXMulLatency:     rng.Intn(8),
				PerfectCache:      rng.Intn(2) == 0,
			},
		}
		name := fmt.Sprintf("trial%d_%s_%s", trial, req.Dispatch, req.configKey())
		t.Run(name, func(t *testing.T) {
			s := New(Config{CacheEntries: 2})
			reports := make([]string, 2)
			for pass := 0; pass < 2; pass++ {
				comp, hit, err := s.compiledFor(req)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if hit != (pass == 1) {
					t.Errorf("pass %d: hit=%t", pass, hit)
				}
				res, err := core.RunCompiled(comp, req.options(nil))
				if err != nil {
					t.Fatalf("pass %d run: %v", pass, err)
				}
				data, err := json.Marshal(res.Report)
				if err != nil {
					t.Fatal(err)
				}
				reports[pass] = string(data)
			}
			if reports[0] != reports[1] {
				t.Error("warm-cache report differs from cold report")
			}
			direct, err := core.Run(bench, req.options(nil))
			if err != nil {
				t.Fatalf("direct run: %v", err)
			}
			want, err := json.Marshal(direct.Report)
			if err != nil {
				t.Fatal(err)
			}
			if reports[0] != string(want) {
				t.Error("cached report differs from cache-bypassing direct run")
			}
		})
	}
}

// TestCacheEvictionUnderTinyCapacityStaysCorrect cycles three cache keys
// through a two-entry cache: constant eviction churn must never corrupt
// results.
func TestCacheEvictionUnderTinyCapacityStaysCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("eviction sweep; skipped in -short mode")
	}
	s := New(Config{CacheEntries: 2})
	programs := []string{"fir.c", "fir.fp", "fir.mmx"}
	want := map[string]string{}
	for _, name := range programs {
		bench, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("unknown program %q", name)
		}
		direct, err := core.Run(bench, core.Options{SkipCheck: true})
		if err != nil {
			t.Fatalf("%s: direct run: %v", name, err)
		}
		data, err := json.Marshal(direct.Report)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = string(data)
	}
	for round := 0; round < 3; round++ {
		for _, name := range programs {
			req := &RunRequest{Program: name, SkipCheck: true}
			comp, _, err := s.compiledFor(req)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			res, err := core.RunCompiled(comp, req.options(nil))
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			got, err := json.Marshal(res.Report)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want[name] {
				t.Errorf("round %d: %s report drifted under eviction churn", round, name)
			}
		}
	}
	if s.cache.stats().Evictions == 0 {
		t.Error("three programs through a two-entry cache evicted nothing")
	}
}
