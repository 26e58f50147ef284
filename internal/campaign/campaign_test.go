package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeExecutor scripts point outcomes for runner tests.
type fakeExecutor struct {
	mu    sync.Mutex
	runs  int
	fn    func(ctx context.Context, p Point) (PointResult, error)
	block chan struct{} // when non-nil, RunPoint waits on it (cancel tests)
}

func (f *fakeExecutor) RunPoint(ctx context.Context, p Point) (PointResult, error) {
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return PointResult{}, ctx.Err()
		}
	}
	if f.fn != nil {
		return f.fn(ctx, p)
	}
	return PointResult{Cycles: 100, Instrs: 10}, nil
}

func (f *fakeExecutor) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

func newTestCampaign(t *testing.T, spec string) *Campaign {
	t.Helper()
	s, points, err := ParseSpec([]byte(spec), DefaultLimits())
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return New(context.Background(), NewID(), s, points, "tenant-a")
}

func TestRunCompletesAndRendersArtifacts(t *testing.T) {
	c := newTestCampaign(t, `{"programs":["fir.mmx"],"axes":{"l1_size":[8192,16384,32768]}}`)
	ex := &fakeExecutor{fn: func(_ context.Context, p Point) (PointResult, error) {
		// Cycles shrink as L1 grows, so the sensitivity table is non-flat.
		return PointResult{Cycles: uint64(1000000 / p.Values[0]), Instrs: 500}, nil
	}}
	Run(c, ex, RunnerConfig{})

	if c.Status() != StatusCompleted {
		t.Fatalf("status %q, want completed", c.Status())
	}
	ev := c.Snapshot()
	if ev.Done != 3 || ev.Failed != 0 || ev.Canceled != 0 {
		t.Fatalf("terminal event %+v", ev)
	}
	if got := c.SimulatedInstrs(); got != 1500 {
		t.Fatalf("SimulatedInstrs = %d, want 1500", got)
	}
	csv, md := c.Artifacts()
	if !strings.HasPrefix(string(csv), "program,l1_size,cycles,instructions,l1_misses,l2_misses\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(string(csv), "fir.mmx,8192,122,500,0,0") {
		t.Fatalf("csv lacks the 8192 row:\n%s", csv)
	}
	if !strings.Contains(string(md), "## Axis `l1_size`") || !strings.Contains(string(md), "fir.mmx") {
		t.Fatalf("markdown lacks the axis section:\n%s", md)
	}
	if !c.Terminal() {
		t.Fatal("Terminal() false after Run returned")
	}
}

func TestRunArtifactsDeterministic(t *testing.T) {
	const spec = `{"programs":["fir.mmx","fir.c"],"dispatch":["block","trace"],"axes":{"mul_latency":[1,3],"emms_latency":[0,25]}}`
	render := func() (string, string) {
		c := newTestCampaign(t, spec)
		ex := &fakeExecutor{fn: func(_ context.Context, p Point) (PointResult, error) {
			// Deterministic function of the cell, like real simulation.
			cycles := uint64(1000+17*p.Values[0]+3*p.Values[1]) + uint64Hash(p.Program)
			return PointResult{Cycles: cycles, Instrs: 100}, nil
		}}
		Run(c, ex, RunnerConfig{Workers: 3})
		csv, md := c.Artifacts()
		return string(csv), string(md)
	}
	csv1, md1 := render()
	csv2, md2 := render()
	if csv1 != csv2 || md1 != md2 {
		t.Fatal("artifacts differ across identical campaigns")
	}
}

func uint64Hash(parts ...string) uint64 {
	var h uint64 = 14695981039346656037
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	return h % 1000
}

// TestCancelClassifiesPointsCanceledNotFailed is the 499-rule regression:
// a canceled campaign must report canceled points, never failed ones, no
// matter how the executor surfaces the interruption.
func TestCancelClassifiesPointsCanceledNotFailed(t *testing.T) {
	c := newTestCampaign(t, `{"programs":["fir.mmx"],"axes":{"mul_latency":[1,2,3,4,5,6,7,8]}}`)
	started := make(chan struct{}, 8)
	ex := &fakeExecutor{}
	ex.fn = func(ctx context.Context, p Point) (PointResult, error) {
		started <- struct{}{}
		<-ctx.Done()
		// Executors wrap the cause; the runner must still classify this
		// as canceled via errors.Is.
		return PointResult{}, fmt.Errorf("point interrupted: %w", ctx.Err())
	}
	var outcomes sync.Map
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(c, ex, RunnerConfig{Workers: 2, OnPoint: func(_ time.Duration, outcome string, _ bool) {
			v, _ := outcomes.LoadOrStore(outcome, new(atomic.Int64))
			v.(*atomic.Int64).Add(1)
		}})
	}()
	<-started // at least one point is in flight
	c.Cancel()
	<-done

	if c.Status() != StatusCanceled {
		t.Fatalf("status %q, want canceled", c.Status())
	}
	ev := c.Snapshot()
	if ev.Failed != 0 {
		t.Fatalf("canceled campaign reports %d failed points", ev.Failed)
	}
	if ev.Canceled+ev.Done != ev.Total {
		t.Fatalf("counters do not sum: %+v", ev)
	}
	if v, ok := outcomes.Load(PointFailed); ok {
		t.Fatalf("OnPoint saw %d failed outcomes in a canceled campaign", v.(*atomic.Int64).Load())
	}
	// Canceled campaigns render no artifacts (the grid is incomplete).
	if csv, md := c.Artifacts(); len(csv) != 0 || len(md) != 0 {
		t.Fatal("canceled campaign rendered artifacts")
	}
}

func TestRunClassifiesGenuineFailures(t *testing.T) {
	c := newTestCampaign(t, `{"programs":["fir.mmx"],"axes":{"mul_latency":[1,2]}}`)
	ex := &fakeExecutor{fn: func(_ context.Context, p Point) (PointResult, error) {
		if p.Values[0] == 2 {
			return PointResult{}, errors.New("backend exploded")
		}
		return PointResult{Cycles: 10, Instrs: 1}, nil
	}}
	Run(c, ex, RunnerConfig{Workers: 1})
	ev := c.Snapshot()
	if ev.Done != 1 || ev.Failed != 1 {
		t.Fatalf("event %+v, want 1 done / 1 failed", ev)
	}
	// A failed (not canceled) campaign still completes.
	if c.Status() != StatusCompleted {
		t.Fatalf("status %q", c.Status())
	}
	var failed *PointState
	for i, ps := range c.PointsSnapshot() {
		if ps.Status == PointFailed {
			p := c.PointsSnapshot()[i]
			failed = &p
		}
	}
	if failed == nil || !strings.Contains(failed.Err, "backend exploded") {
		t.Fatalf("failed point state %+v", failed)
	}
}

func TestCachedPointsAreQuotaFree(t *testing.T) {
	c := newTestCampaign(t, `{"programs":["fir.mmx"],"axes":{"mul_latency":[1,2]}}`)
	ex := &fakeExecutor{fn: func(_ context.Context, p Point) (PointResult, error) {
		return PointResult{Cycles: 10, Instrs: 1000, Cached: p.Values[0] == 2}, nil
	}}
	Run(c, ex, RunnerConfig{Workers: 1})
	if got := c.SimulatedInstrs(); got != 1000 {
		t.Fatalf("SimulatedInstrs = %d, want 1000 (cached point must be free)", got)
	}
	if ev := c.Snapshot(); ev.Cached != 1 {
		t.Fatalf("event %+v, want 1 cached", ev)
	}
}

func TestSubscribeDeliversTerminalEvent(t *testing.T) {
	c := newTestCampaign(t, `{"programs":["fir.mmx"],"axes":{"mul_latency":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]}}`)
	ch, unsub := c.Subscribe()
	defer unsub()
	// A deliberately slow subscriber: the 20-point campaign overflows the
	// 16-slot buffer, yet the terminal event must still arrive.
	Run(c, &fakeExecutor{}, RunnerConfig{Workers: 4})
	var last Event
	for ev := range ch {
		last = ev
	}
	if last.Status != StatusCompleted || last.Done != 20 {
		t.Fatalf("terminal event %+v", last)
	}
	// Subscribing after the end yields the final event immediately.
	ch2, unsub2 := c.Subscribe()
	defer unsub2()
	select {
	case ev := <-ch2:
		if ev.Status != StatusCompleted {
			t.Fatalf("late subscriber got %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("late subscriber got no event")
	}
}

func TestStoreBoundsActiveCampaigns(t *testing.T) {
	st := NewStore(2, 4)
	mk := func() *Campaign { return newTestCampaign(t, `{"programs":["fir.mmx"]}`) }
	a, b := mk(), mk()
	if err := st.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(mk()); !errors.Is(err, ErrTooManyCampaigns) {
		t.Fatalf("third active campaign admitted: %v", err)
	}
	if st.Active() != 2 {
		t.Fatalf("Active = %d", st.Active())
	}
	// Settling frees a slot; the finished campaign stays retrievable.
	Run(a, &fakeExecutor{}, RunnerConfig{})
	st.Settle()
	if err := st.Add(mk()); err != nil {
		t.Fatalf("slot not freed after Settle: %v", err)
	}
	if _, ok := st.Get(a.ID); !ok {
		t.Fatal("terminal campaign evicted while under retention")
	}
}
