// Command perfbench is the repository's benchmark program: it runs one
// named workload against the explorer (internal/mc), the timed DES
// (internal/core + internal/workload) or the job farm (internal/farm),
// checks every output against goldens taken from the code, and prints
// the workload's metrics. It calls only the packages' public API, and
// its spans (-trace 1) sit around those calls, never inside them.
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload des-8x8 --seed 3 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end set of BENCHMARK.json, with -trace 1 the per-layer set.
// Lines before it are a human-readable report, and the full report —
// provenance, every sample summary, the check log — is written to
// .bench_build/results/<workload>-seed<n>-trace<k>.json.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"multicube/internal/workload"
)

// maxProcs caps GOMAXPROCS and every worker, thread and connection count
// of every workload, so runs compare across hosts with at least this many
// CPUs; smaller hosts use all they have.
const maxProcs = 2

func procs() int { return min(maxProcs, runtime.NumCPU()) }

// bench is one invocation: its inputs, its running checks and the
// metrics it reports.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	root     string // repository root (the checkout)
	tmp      string // scratch space inside the checkout
	tr       *tracer
	golden   *golden
	// Host CPU ticks at the start, for the share the hypervisor stole.
	steal0, total0 uint64

	// Fault injection for the self-tests; nil in every real run.
	parStream   func(workload.GenConfig) workload.GenConfig
	farmHandler func(http.Handler) http.Handler

	attempted, failed int
	failures          []string

	metrics map[string]float64 // reported metrics by name
	detail  map[string]any     // extra report data (not metrics)
}

// check counts one attempted operation and records it as failed unless
// ok. Failures are reported, never fatal, so error_rate sees them.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		msg := fmt.Sprintf(format, args...)
		if len(b.failures) < 50 {
			b.failures = append(b.failures, msg)
		}
		fmt.Printf("FAIL %s\n", msg)
	}
	return ok
}

func newBench(workload string, seed uint64, seconds time.Duration, g *golden, tmp string) *bench {
	return &bench{
		workload: workload, seed: seed, seconds: seconds, golden: g, tmp: tmp,
		metrics: map[string]float64{}, detail: map[string]any{},
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = map[string]func(*bench) error{
	"explore-seq":       runExploreSeq,
	"explore-par-spill": runExploreParSpill,
	"des-8x8":           runDES,
	"farm-open":         runFarm,
}

// contract is the part of BENCHMARK.json a run reports against: the
// metric names and units of each kind of run.
type contract struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 25, "measured seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root")
		golden   = flag.Bool("write-golden", false, "regenerate golden.json from the current code and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs())
	if err := run(*workload, *seed, *seconds, *traced, *root, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced int, root string, golden bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if golden {
		return writeGolden(filepath.Join(root, "perfbench", "golden.json"))
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || (traced != 0 && traced != 1) {
		return fmt.Errorf("bad -seconds %v or -trace %d", seconds, traced)
	}
	g, err := parseGolden(goldenJSON)
	if err != nil {
		return err
	}
	c, err := loadContract(root)
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return err
	}
	steal0, total0 := hostTicks()
	runOnce := func(tr *tracer) (*bench, error) {
		tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), workload+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		b := newBench(workload, seed, time.Duration(seconds*float64(time.Second)), g, tmp)
		b.root, b.tr = root, tr
		b.steal0, b.total0 = steal0, total0
		return b, fn(b)
	}
	b, err := runOnce(nil)
	if err != nil {
		return err
	}
	if traced == 0 {
		b.set("peak_rss_mb", peakRSSMB())
		return b.emit(out, c.EndToEnd, traced)
	}
	// The traced run repeats the workload with spans on; the difference
	// from the untraced pass just made is the tracing overhead.
	t, err := runOnce(newTracer())
	if err != nil {
		return err
	}
	t.attempted += b.attempted
	t.failed += b.failed
	t.failures = append(b.failures, t.failures...)
	t.set("trace.overhead_throughput_pct", 100*(b.metrics["throughput_per_s"]-t.metrics["throughput_per_s"])/b.metrics["throughput_per_s"])
	t.set("trace.overhead_latency_pct", 100*(t.metrics["latency_p50_ms"]-b.metrics["latency_p50_ms"])/b.metrics["latency_p50_ms"])
	for name, d := range t.tr.selfTimes() {
		t.set("self_ms."+name, float64(d)/1e6)
	}
	t.set("trace.spans", float64(t.tr.count()))
	if err := os.MkdirAll(filepath.Join(out, "traces"), 0o755); err != nil {
		return err
	}
	if err := t.tr.write(filepath.Join(out, "traces", workload+".jsonl")); err != nil {
		return err
	}
	return t.emit(out, c.PerLayer, traced)
}

// emit prints the report and, last, the result line.
func (b *bench) emit(out string, want []metricDef, traced int) error {
	prov := provenance(b.root)
	prov["workload"], prov["seed"], prov["seconds"], prov["trace"] = b.workload, b.seed, b.seconds.Seconds(), traced
	if steal, total := hostTicks(); total > b.total0 {
		// A noisy shared host shows here first: the share of all CPU
		// time during the run that the hypervisor gave to other guests.
		prov["host_steal_pct"] = 100 * float64(steal-b.steal0) / float64(total-b.total0)
	}
	metrics := map[string]any{}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok && b.tr == nil {
			return fmt.Errorf("workload %s did not report %s", b.workload, m.Name)
		}
		// A per-layer metric the workload does not reach reads 0: that
		// layer does no work on this workload.
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	provJSON, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provJSON)
	keys := make([]string, 0, len(b.detail))
	for k := range b.detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		j, _ := json.Marshal(b.detail[k])
		fmt.Printf("detail %s %s\n", k, j)
	}
	for _, m := range want {
		fmt.Printf("metric %-32s %14.6g %s\n", m.Name, b.metrics[m.Name], m.Unit)
	}
	full := map[string]any{
		"provenance": prov, "detail": b.detail, "metrics": metrics,
		"attempted": b.attempted, "failed": b.failed, "failures": b.failures,
	}
	if err := os.MkdirAll(filepath.Join(out, "results"), 0o755); err != nil {
		return err
	}
	fj, _ := json.MarshalIndent(full, "", " ")
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, traced)
	if err := os.WriteFile(filepath.Join(out, "results", name), fj, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// provenance records where and on what a result was measured. The
// checkout a benchmark runs in need not be a git repository, so the
// source is identified by a hash of every Go file and go.mod under the
// root, and by the commit when git can name it.
func provenance(root string) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"commit":     gitCommit(root),
		"source":     sourceHash(root),
		"host":       host,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the checkout's commit; a checkout without its own .git
// (which git would otherwise resolve to an enclosing repository) has none.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostTicks reads the machine-wide CPU ticks from /proc/stat: those
// stolen by the hypervisor and all of them.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i := 1; i < len(f); i++ {
		var v uint64
		fmt.Sscan(f[i], &v)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}
