// Command perfbench is the udwn benchmark: it drives the simulator, the
// fault injector and the job daemon through their public functions, checks
// every output, and prints end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). See README.md for the workloads and metrics.
//
//	perfbench -workload local-dense -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the workload seed whose simulated digests are recorded.
const defaultSeed = 1

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"job_cold_p50_ms", "ms"},
	{"job_cold_tail_ms", "ms"},
	{"job_warm_p50_ms", "ms"},
	{"ops_ok_frac", "ratio"},
}

// perLayer lists the metrics a traced run reports. A layer a workload does
// not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_s", "s"},
		{"sim.new_s", "s"},
		{"sim.new_calls", "count"},
		{"sim.new_alloc_mb", "MB"},
		{"sim.step_s", "s"},
		{"sim.step_p50_us", "us"},
		{"sim.step_p99_us", "us"},
		{"sim.node_slots_per_s", "1/s"},
		{"sim.index.candidates_per_tx", "ratio"},
		{"sim.field.lazy_evals", "count"},
		{"sim.field.reuse_ratio", "ratio"},
		{"sim.wheel.skipped_slots", "count"},
		{"sim.ticks", "count"},
		{"core.tx", "count"},
		{"core.mass_per_tx", "ratio"},
		{"faults.events", "count"},
		{"faults.droprecv_calls", "count"},
		{"faults.drop_ratio", "ratio"},
		{"jobs.submit_p50_us", "us"},
		{"jobs.queue_wait_p50_ms", "ms"},
		{"jobs.queue_wait_tail_ms", "ms"},
		{"jobs.run_p50_ms", "ms"},
		{"jobs.queue_high_water", "count"},
		{"jobs.gen_late_ms", "ms"},
		{"experiment.cell_p50_ms", "ms"},
		{"checkpoint.hit_ratio", "ratio"},
		{"checkpoint.stores", "count"},
		{"checkpoint.dedup_waits", "count"},
		{"checkpoint.journal_mb", "MB"},
		{"trace.bytes_per_job", "bytes"},
		{"bench.trace_overhead_frac", "ratio"},
	}
	for _, name := range spanNames {
		defs = append(defs, metricDef{"self_s." + name, "s"})
	}
	return defs
}()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int
	budget   time.Duration
	trace    bool
	short    bool // shrink every workload (the benchmark's own tests set it)
	work     string
	// expectOverride replaces the recorded digests (tests corrupt it).
	expectOverride []uint64
}

// outcome accumulates one run's ops, metrics and notes.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	failures          []string
	spans             *tracer // traced runs: written out when the run ends
}

// add records a metric; its unit comes from the endToEnd/perLayer tables.
func (o *outcome) add(name string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]float64)
	}
	o.metrics[name] = v
}

// addOK reports the share of attempted ops that succeeded.
func (o *outcome) addOK() {
	o.add("ops_ok_frac", ratio(float64(o.attempted-o.failed), float64(o.attempted)))
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// addSelfTimes reports each layer's self time, averaged over n traced
// repetitions (passes or schedules).
func (o *outcome) addSelfTimes(tr *tracer, n float64) {
	self := tr.selfTimes()
	for _, name := range spanNames {
		o.add("self_s."+name, ratio(self[name].Seconds(), n))
	}
}

var simWorkloads = map[string]simWorkload{
	"local-dense":  {cell: localDense, cells: 3, passes: 3, expected: localDenseDigests, expectedShort: localDenseShortDigests},
	"faults-mixed": {cell: faultsMixed, cells: 3, passes: 2, expected: faultsMixedDigests, expectedShort: faultsMixedShortDigests},
}

// run executes one workload and returns its outcome.
func run(cfg config) (*outcome, error) {
	if w, ok := simWorkloads[cfg.workload]; ok {
		return runSimWorkload(w, cfg)
	}
	if cfg.workload == "daemon-mixed" {
		return runDaemon(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want local-dense, faults-mixed or daemon-mixed)", cfg.workload)
}

// result is the JSON object of the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders the metric lines and the final JSON line of an outcome.
func report(cfg config, out *outcome) (string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var b strings.Builder
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(&b, "%-32s %14.6g %s\n", d.name, v, d.unit)
	}
	js, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	b.Write(js)
	b.WriteByte('\n')
	return b.String(), nil
}

func main() {
	var cfg config
	var seconds float64
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "local-dense, faults-mixed or daemon-mixed")
	flag.IntVar(&cfg.seed, "seed", defaultSeed, "workload seed; topology and run seeds derive from it")
	flag.Float64Var(&seconds, "seconds", 25, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for the daemon state and the span files")
	flag.Parse()
	cfg.budget = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	if cfg.seed < 0 {
		fatal(errors.New("-seed must not be negative"))
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}

	// A run must end within three minutes; past that something hangs (a job
	// that never reaches a terminal state), so give up without a result.
	time.AfterFunc(cfg.budget+140*time.Second, func() {
		fatal(fmt.Errorf("%s did not finish within %s of its budget", cfg.workload, 140*time.Second))
	})
	hdr := header(cfg)
	fmt.Println("# header", hdr)
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	for _, n := range out.notes {
		fmt.Println("# note:", n)
	}
	for _, f := range out.failures {
		fmt.Println("# FAILED:", f)
	}
	if out.spans != nil {
		dir := filepath.Join(cfg.work, "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", cfg.workload, cfg.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		if err := out.spans.write(path, hdr); err != nil {
			fatal(err)
		}
		fmt.Println("# spans:", path)
	}
	text, err := report(cfg, out)
	if err != nil {
		fatal(err)
	}
	fmt.Print(text)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// header describes the code and the machine a result was measured on.
func header(cfg config) string {
	h := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.budget.Seconds(),
		"trace":      cfg.trace,
		"commit":     commit(),
		"source":     sourceHash(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
	js, _ := json.Marshal(h) // a map of strings, numbers and bools always encodes
	return string(js)
}

// commit reads the checked-out commit from .git without running git, or
// reports "none" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}
