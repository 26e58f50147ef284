// Command perfbench is the repository benchmark: one process that drives
// the simulator (suite) or the in-process serving fleet (serve_warm) with
// seeded inputs for a fixed time, checks every output,
// and prints end-to-end metrics (-trace 0) or per-layer metrics from a
// separately traced run (-trace 1). See README.md for the design.
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before
// it is the ledger (provenance, sample counts, spreads, traced and
// untraced figures side by side).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// clients is the number of closed-loop client goroutines (and connections)
// of the HTTP workloads: one per core.
const clients = 2

// Repeats behind every median.
const (
	serveSetups = 5 // set-ups per run; setup_s is their median
	suiteSetups = 9 // the suite's set-up takes 0.1 s, so it takes more
	minRounds   = 3 // timed rounds (or batches) per mode, even past --seconds
	ladderReps  = 8 // two full rotations of the four rungs
	probeReps   = 5
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"points_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the metrics a -trace 1 run prints, on every workload. A
// layer that does no work on a workload reads 0 there.
var perLayer = []metricDef{
	{"asm.build_ms", "ms"},
	{"vm.compile_ms", "ms"},
	{"vm.ns_per_instr", "ns"},
	{"mem.ns_per_instr", "ns"},
	{"pentium.ns_per_instr", "ns"},
	{"core.check_ms", "ms"},
	{"core.report_ms", "ms"},
	{"core.alloc_mb_per_run", "MB"},
	{"gc.pause_ms", "ms"},
	{"ladder.residual_pct", "%"},
	{"vm.instrs", "count"},
	{"mem.accesses", "count"},
	{"mem.l1_misses", "count"},
	{"mem.l2_misses", "count"},
	{"pentium.cycles", "count"},
	{"pentium.pairs", "count"},
	{"pentium.mispredicts", "count"},
	{"vm.fast_event_pct", "%"},
	{"vm.trace_resident_pct", "%"},
	{"vm.side_exit_pct", "%"},
	{"cluster.self_ms_p50", "ms"},
	{"cluster.self_ms_p99", "ms"},
	{"cluster.result_hit_pct", "%"},
	{"cluster.retries", "count"},
	{"server.handler_ms_p50", "ms"},
	{"server.handler_ms_p99", "ms"},
	{"server.parse_us", "us"},
	{"server.result_hit_pct", "%"},
	{"server.result_fills", "count"},
	{"server.compile_hit_pct", "%"},
	{"server.alloc_kb_per_req", "KB"},
	{"http.transport_ms_p50", "ms"},
	{"http.transport_pct", "%"},
	{"campaign.parse_ms", "ms"},
	{"server.busy_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// env is one benchmark invocation.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: the module the benchmark measures
	out      string // directory for the span dump and the ledger
}

// outcome is what a workload hands back: operation counts, correctness
// failures, the metrics of this mode, and extra ledger entries.
type outcome struct {
	attempted, failed int
	wrong             []string
	wrongCount        int
	metrics           map[string]sample
	ledger            map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]sample{}, ledger: map[string]any{}}
}

// maxWrong bounds the wrong outputs a run lists; the rest are counted.
const maxWrong = 20

// fail records a wrong output; any makes the run incorrect.
func (o *outcome) fail(format string, args ...any) {
	if len(o.wrong) < maxWrong {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
	o.wrongCount++
}

// set stores a per-layer figure (no sample count: each is computed once
// per run from the medians the ledger records).
func (o *outcome) set(name string, v float64) {
	o.metrics[name] = sample{Value: v, Unit: unitOf(name), N: 1}
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("unknown metric " + name)
}

var workloads = map[string]func(*env) (*outcome, error){
	"suite":      runSuite,
	"serve_warm": runServe,
}

func main() {
	var e env
	var seconds, trace int
	var commit string
	flag.StringVar(&e.workload, "workload", "", "workload: suite or serve_warm")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.StringVar(&e.root, "root", ".", "checkout root")
	flag.StringVar(&e.out, "out", ".bench_build/out", "directory for spans and the ledger")
	flag.StringVar(&commit, "commit", "unknown", "commit being measured")
	flag.Parse()
	e.seconds = time.Duration(seconds) * time.Second
	e.trace = trace == 1
	run, ok := workloads[e.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", e.workload, seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	o, err := run(&e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !e.trace {
		o.metrics["rss_peak_mb"] = sample{Value: peakRSSMB(), Unit: "MB", N: 1}
	}
	if err := complete(o, e.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	ledger := provenance(&e, commit)
	for k, v := range o.ledger {
		ledger[k] = v
	}
	ledger["metrics"] = o.metrics
	ledger["wrong"], ledger["wrong_count"] = o.wrong, o.wrongCount
	line, err := json.Marshal(map[string]any{"ledger": ledger})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	name := fmt.Sprintf("%s-seed%d-trace%d.ledger.json", e.workload, e.seed, trace)
	if err := os.WriteFile(filepath.Join(e.out, name), append(line, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	for _, w := range o.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", w)
	}
	correct := len(o.wrong) == 0 && o.failed == 0
	fmt.Println(resultLine(correct, o))
	if !correct {
		os.Exit(1)
	}
}

// complete checks that the run produced exactly the metrics of its mode.
func complete(o *outcome, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(o.metrics) != len(want) {
		var got []string
		for k := range o.metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		return fmt.Errorf("run produced metrics %v, want the %d of its mode", got, len(want))
	}
	for _, d := range want {
		if _, ok := o.metrics[d.name]; !ok {
			return fmt.Errorf("run did not produce metric %s", d.name)
		}
	}
	if o.attempted < 1 {
		return errors.New("run attempted no operations")
	}
	return nil
}

// resultLine renders the final line of standard output.
func resultLine(correct bool, o *outcome) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]mv{}
	for k, s := range o.metrics {
		m[k] = mv{s.Value, s.Unit}
	}
	line, _ := json.Marshal(struct { // marshaling plain numbers and strings cannot fail
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, o.attempted, o.failed, m})
	return string(line)
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// provenance stamps the host and the code a run measured.
func provenance(e *env, commit string) map[string]any {
	return map[string]any{
		"workload":      e.workload,
		"seed":          e.seed,
		"seconds":       e.seconds.Seconds(),
		"trace":         e.trace,
		"commit":        commit,
		"source_sha256": sourceDigest(e.root),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"utc":           time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceDigest hashes the measured module's Go sources, so a ledger names
// the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
