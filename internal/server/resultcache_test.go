// White-box tests for the result cache: LRU bounds, single-flight
// coalescing, error non-caching, the spill tier's verify-on-load, and the
// key/ETag algebra the HTTP layers build on.
package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func fillWith(body string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(body), nil }
}

func TestResultCacheHitAndLRUEviction(t *testing.T) {
	c := NewResultCache(2, "")
	ctx := context.Background()

	res, outcome, err := c.Do(ctx, "a", fillWith("body-a"))
	if err != nil || outcome != ResultMiss || string(res.Body) != "body-a" {
		t.Fatalf("first fill: res=%v outcome=%v err=%v", res, outcome, err)
	}
	if _, outcome, _ = c.Do(ctx, "a", fillWith("WRONG")); outcome != ResultHit {
		t.Fatalf("second lookup outcome = %v, want hit", outcome)
	}

	// Fill b then c; a is now the LRU victim... but touch a first so b is.
	if _, _, err := c.Do(ctx, "b", fillWith("body-b")); err != nil {
		t.Fatal(err)
	}
	if _, outcome, _ := c.Do(ctx, "a", fillWith("WRONG")); outcome != ResultHit {
		t.Fatalf("a should still be cached, got %v", outcome)
	}
	if _, _, err := c.Do(ctx, "c", fillWith("body-c")); err != nil {
		t.Fatal(err)
	}
	if _, outcome, _ := c.Do(ctx, "b", fillWith("refilled-b")); outcome != ResultMiss {
		t.Fatalf("b should have been evicted, got %v", outcome)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats report no evictions: %+v", st)
	}
	if st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("entries/capacity = %d/%d, want 2/2", st.Entries, st.Capacity)
	}
}

func TestResultCacheSingleFlightCoalesces(t *testing.T) {
	c := NewResultCache(8, "")
	const waiters = 8

	gate := make(chan struct{})
	var fills int
	var fillMu sync.Mutex
	fill := func() ([]byte, error) {
		fillMu.Lock()
		fills++
		fillMu.Unlock()
		<-gate
		return []byte("slow-body"), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]ResultOutcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, outcome, err := c.Do(context.Background(), "k", fill)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			if string(res.Body) != "slow-body" {
				t.Errorf("waiter %d body = %q", i, res.Body)
			}
			outcomes[i] = outcome
		}(i)
	}
	// Let the followers pile onto the in-flight fill before releasing it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Coalesced >= waiters-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if fills != 1 {
		t.Fatalf("fill executed %d times, want 1", fills)
	}
	var missers, coalesced int
	for _, o := range outcomes {
		switch o {
		case ResultMiss:
			missers++
		case ResultCoalesced:
			coalesced++
		default:
			t.Fatalf("unexpected outcome %v", o)
		}
	}
	if missers != 1 || coalesced != waiters-1 {
		t.Fatalf("missers=%d coalesced=%d, want 1/%d", missers, coalesced, waiters-1)
	}
}

func TestResultCacheFillErrorsAreNotCached(t *testing.T) {
	c := NewResultCache(8, "")
	ctx := context.Background()
	boom := errors.New("boom")

	if _, _, err := c.Do(ctx, "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not poison the key: the next caller re-executes.
	res, outcome, err := c.Do(ctx, "k", fillWith("recovered"))
	if err != nil || outcome != ResultMiss || string(res.Body) != "recovered" {
		t.Fatalf("after error: res=%v outcome=%v err=%v", res, outcome, err)
	}
}

func TestResultCacheWaiterRetriesAfterLeaderFailure(t *testing.T) {
	c := NewResultCache(8, "")
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-gate
			return nil, errors.New("leader died")
		})
	}()
	<-leaderIn

	done := make(chan error, 1)
	go func() {
		res, _, err := c.Do(context.Background(), "k", fillWith("follower-wins"))
		if err == nil && string(res.Body) != "follower-wins" {
			err = errors.New("wrong body: " + string(res.Body))
		}
		done <- err
	}()
	// Give the follower a moment to park on the in-flight entry, then let
	// the leader fail; the follower must retry and fill successfully.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Coalesced >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("follower: %v", err)
	}
}

// TestResultCachePanickingFillReleasesKey pins fault containment: a fill
// that panics must re-panic to its caller and free the key, so the next
// Do on it fills promptly instead of waiting out its deadline on a flight
// nobody will finish.
func TestResultCachePanickingFillReleasesKey(t *testing.T) {
	c := NewResultCache(8, "")
	func() {
		defer func() {
			if r := recover(); r != "fill exploded" {
				t.Fatalf("recovered %v, want the fill's panic", r)
			}
		}()
		_, _, _ = c.Do(context.Background(), "k", func() ([]byte, error) {
			panic("fill exploded")
		})
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	res, outcome, err := c.Do(ctx, "k", fillWith("after-panic"))
	if err != nil {
		t.Fatalf("Do after a panicking fill: %v (waited %v)", err, time.Since(start))
	}
	if outcome != ResultMiss || string(res.Body) != "after-panic" {
		t.Fatalf("Do after a panicking fill: outcome %v body %q, want a fresh miss", outcome, res.Body)
	}
	if _, outcome, _ := c.Do(ctx, "k", fillWith("WRONG")); outcome != ResultHit {
		t.Fatalf("refilled key outcome = %v, want hit", outcome)
	}
}

func TestResultCacheCoalescedWaitHonorsContext(t *testing.T) {
	c := NewResultCache(8, "")
	gate := make(chan struct{})
	defer close(gate)
	leaderIn := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-gate
			return []byte("late"), nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := c.Do(ctx, "k", fillWith("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestResultCacheSpillSurvivesNewInstance(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	first := NewResultCache(8, dir)
	res1, _, err := first.Do(ctx, "k", fillWith("persisted"))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh instance over the same directory — a restarted daemon — must
	// answer from the spill tier without executing.
	second := NewResultCache(8, dir)
	res2, outcome, err := second.Do(ctx, "k", func() ([]byte, error) {
		t.Error("fill executed despite a spill entry")
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != ResultSpillHit {
		t.Fatalf("outcome = %v, want spill", outcome)
	}
	if string(res2.Body) != "persisted" || res2.ETag != res1.ETag {
		t.Fatalf("spill round-trip mismatch: body=%q etag=%q vs %q", res2.Body, res2.ETag, res1.ETag)
	}
	// Once revived it is a memory entry.
	if _, outcome, _ := second.Do(ctx, "k", fillWith("x")); outcome != ResultHit {
		t.Fatalf("post-revival outcome = %v, want hit", outcome)
	}
}

func TestResultCacheSpillRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	first := NewResultCache(8, dir)
	if _, _, err := first.Do(ctx, "k", fillWith("original")); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.result.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v (err %v), want exactly one", files, err)
	}
	// Flip bytes inside the stored body; the recomputed ETag must disagree.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(string(data))
	tampered[len(tampered)/2] ^= 0xff
	if err := os.WriteFile(files[0], tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	second := NewResultCache(8, dir)
	res, outcome, err := second.Do(ctx, "k", fillWith("refilled"))
	if err != nil || outcome != ResultMiss || string(res.Body) != "refilled" {
		t.Fatalf("corrupt spill should re-execute: res=%v outcome=%v err=%v", res, outcome, err)
	}
}

func TestETagForIsDeterministicAndKeyed(t *testing.T) {
	a := ETagFor("k", []byte("body"))
	if a != ETagFor("k", []byte("body")) {
		t.Fatal("ETagFor is not deterministic")
	}
	if a == ETagFor("other", []byte("body")) {
		t.Fatal("ETag ignores the key")
	}
	if a == ETagFor("k", []byte("other")) {
		t.Fatal("ETag ignores the body")
	}
	if len(a) < 2 || a[0] != '"' || a[len(a)-1] != '"' {
		t.Fatalf("ETag %q is not a quoted entity tag", a)
	}
}

func TestEtagMatches(t *testing.T) {
	etag := `"abc123"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{etag, true},
		{`"zzz"`, false},
		{`"zzz", "abc123"`, true},
		{"*", true},
		{`W/"abc123"`, false}, // weak tags never match the strong comparison
	}
	for _, c := range cases {
		if got := etagMatches(c.header, etag); got != c.want {
			t.Errorf("etagMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

func TestResultKeyDistinguishesBudgetAndCheckVariants(t *testing.T) {
	base := RunRequest{Program: "fir.mmx", Dispatch: "block"}
	budget := base
	budget.MaxInstrs = 1000
	checked := base
	checked.SkipCheck = true

	// Both variants share a compiled artifact...
	if base.CacheKey() != budget.CacheKey() || base.CacheKey() != checked.CacheKey() {
		t.Fatal("CacheKey should collapse max_instrs/skip_check variants")
	}
	// ...but produce different responses, so ResultKey must split them.
	keys := map[string]bool{
		base.ResultKey():    true,
		budget.ResultKey():  true,
		checked.ResultKey(): true,
	}
	if len(keys) != 3 {
		t.Fatalf("ResultKey collapsed variants: %v", keys)
	}
}

func TestResultCacheSpillGCBoundsDirectory(t *testing.T) {
	dir := t.TempDir()
	c := NewResultCache(64, dir)
	c.SetSpillLimits(0, 3) // file-count bound only
	ctx := context.Background()

	countSpills := func() int {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".json" {
				n++
			}
		}
		return n
	}

	for i := 0; i < 8; i++ {
		key := string(rune('a' + i))
		if _, _, err := c.Do(ctx, key, fillWith("body-"+key)); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes make the oldest-first order deterministic on
		// coarse-resolution filesystems.
		os.Chtimes(c.spillPath(key), time.Time{}, time.Unix(1700000000+int64(i), 0))
	}
	if n := countSpills(); n > 3 {
		t.Fatalf("spill dir holds %d result files, want <= 3", n)
	}
	st := c.Stats()
	if st.SpillEvictions < 5 {
		t.Fatalf("spill evictions = %d, want >= 5 (stats %+v)", st.SpillEvictions, st)
	}

	// The oldest keys' files are gone; the newest survive and still load
	// from disk in a fresh instance.
	c2 := NewResultCache(64, dir)
	if _, outcome, _ := c2.Do(ctx, "h", fillWith("WRONG")); outcome != ResultSpillHit {
		t.Fatalf("newest entry should revive from spill, got %v", outcome)
	}
	c3 := NewResultCache(64, dir)
	if _, outcome, _ := c3.Do(ctx, "a", fillWith("refilled-a")); outcome != ResultMiss {
		t.Fatalf("oldest entry should have been evicted from spill, got %v", outcome)
	}
}

func TestResultCacheSpillGCByteBound(t *testing.T) {
	dir := t.TempDir()
	c := NewResultCache(64, dir)
	ctx := context.Background()

	// Establish one file's size, then bound the directory to roughly three.
	if _, _, err := c.Do(ctx, "k0", fillWith("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(c.spillPath("k0"))
	if err != nil {
		t.Fatal(err)
	}
	c.SetSpillLimits(3*info.Size()+info.Size()/2, 0)

	for i := 1; i < 8; i++ {
		key := "k" + string(rune('0'+i))
		if _, _, err := c.Do(ctx, key, fillWith("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	if total > 3*info.Size()+info.Size()/2 {
		t.Fatalf("spill dir holds %d bytes, want <= %d", total, 3*info.Size()+info.Size()/2)
	}
	if st := c.Stats(); st.SpillEvictions == 0 {
		t.Fatalf("no spill evictions recorded: %+v", st)
	}
}
