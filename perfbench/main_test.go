package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"udwn/internal/jobs"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     defaultSeed,
		budget:   time.Second,
		trace:    trace,
		short:    true,
		work:     t.TempDir(),
	}
}

// runShort runs one workload in short mode and returns its outcome and the
// parsed last output line.
func runShort(t *testing.T, cfg config) (*outcome, result, string) {
	t.Helper()
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	text, err := report(cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return out, res, text
}

// TestShortModePrintsEveryMetric runs each workload of BENCHMARK.json in
// short mode, untraced and traced, and checks that every metric the file
// names is printed by name with its unit and that the run is correct.
func TestShortModePrintsEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 3", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			defs := b.EndToEnd
			if trace {
				defs = b.PerLayer
			}
			_, res, text := runShort(t, shortConfig(t, w.Name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
				if !containsMetricLine(text, d.Name, d.Unit) {
					t.Errorf("%s trace=%v: no printed line for %s in %s", w.Name, trace, d.Name, d.Unit)
				}
			}
		}
	}
}

func containsMetricLine(text, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestCorruptDigestFails checks that the correctness gate cannot pass
// vacuously: a wrong recorded digest turns into failed ops.
func TestCorruptDigestFails(t *testing.T) {
	cfg := shortConfig(t, "local-dense", false)
	cfg.expectOverride = append([]uint64(nil), localDenseShortDigests...)
	cfg.expectOverride[1] ^= 1
	out, res, _ := runShort(t, cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest: correct=%v failed=%d, want a failed op", res.Correct, res.Failed)
	}
	if ok := out.metrics["ops_ok_frac"]; ok >= 1 {
		t.Errorf("ops_ok_frac = %v with failed ops", ok)
	}
}

// TestLayerPredictions checks the per-layer predictions the workloads were
// chosen for: the grid index works on local-dense and not on faults-mixed,
// the fault wrapper is idle on local-dense, and daemon-mixed both hits and
// misses the checkpoint store.
func TestLayerPredictions(t *testing.T) {
	layers := func(workload string) map[string]float64 {
		out, res, _ := runShort(t, shortConfig(t, workload, true))
		if !res.Correct {
			t.Fatalf("%s traced run failed: %v", workload, out.failures)
		}
		return out.metrics
	}
	ld := layers("local-dense")
	if v := ld["sim.index.candidates_per_tx"]; v <= 0 {
		t.Errorf("local-dense sim.index.candidates_per_tx = %v, want > 0", v)
	}
	if v := ld["faults.droprecv_calls"]; v != 0 {
		t.Errorf("local-dense faults.droprecv_calls = %v, want 0", v)
	}
	fm := layers("faults-mixed")
	if v := fm["sim.index.candidates_per_tx"]; v != 0 {
		t.Errorf("faults-mixed sim.index.candidates_per_tx = %v, want 0", v)
	}
	if v := fm["faults.droprecv_calls"]; v <= 0 {
		t.Errorf("faults-mixed faults.droprecv_calls = %v, want > 0", v)
	}
	dm := layers("daemon-mixed")
	if v := dm["checkpoint.hit_ratio"]; v <= 0 || v >= 1 {
		t.Errorf("daemon-mixed checkpoint.hit_ratio = %v, want in (0, 1)", v)
	}
}

// TestPlanJobs checks the daemon schedule: every (experiment, seed count)
// pair is introduced by exactly one cold job, cold jobs are spread through
// the schedule, warm jobs only repeat covered specs, and the seed does not
// change which cold jobs are traced.
func TestPlanJobs(t *testing.T) {
	plan := planJobs(3, 5*time.Second, daemonExperiments, maxJobSeeds)
	if len(plan) != 200 {
		t.Fatalf("%d jobs, want 200", len(plan))
	}
	covered := make(map[string]int)
	var coldAt []int
	for i, p := range plan {
		e, k := p.spec.Experiments[0], p.spec.Seeds
		if p.cold {
			if k != covered[e]+1 {
				t.Fatalf("cold job %d asks %s for %d seeds after %d", i, e, k, covered[e])
			}
			covered[e] = k
			coldAt = append(coldAt, i)
		} else if k < 1 || k > covered[e] {
			t.Fatalf("warm job %d asks %s for %d seeds, %d covered", i, e, k, covered[e])
		}
	}
	if want := len(daemonExperiments) * maxJobSeeds; len(coldAt) != want {
		t.Fatalf("%d cold jobs, want %d", len(coldAt), want)
	}
	for i := 1; i < len(coldAt); i++ {
		if gap := coldAt[i] - coldAt[i-1]; gap < 3 || gap > 4 {
			t.Errorf("cold jobs %d and %d are %d slots apart", i-1, i, gap)
		}
	}
	// The traced cold jobs are the same set for every seed.
	tracedCold := func(plan []plannedJob) string {
		var specs []string
		for _, p := range plan {
			if p.cold && p.spec.Trace {
				specs = append(specs, fmt.Sprint(p.spec.Experiments, p.spec.Seeds))
			}
		}
		sort.Strings(specs)
		return strings.Join(specs, ",")
	}
	other := planJobs(4, 5*time.Second, daemonExperiments, maxJobSeeds)
	if a, b := tracedCold(plan), tracedCold(other); a == "" || a != b {
		t.Errorf("traced cold jobs differ between seeds: %s vs %s", a, b)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 72; i++ {
		xs = append(xs, float64(i))
	}
	if v, which := tail(xs); v != 62 || which != "p86.1 of 72" {
		t.Errorf("tail of 1..72 = %v (%s), want 62 (p86.1 of 72)", v, which)
	}
	if v, which := tail(xs[:15]); v != 15 || which != "max of 15" {
		t.Errorf("tail of 1..15 = %v (%s), want the maximum", v, which)
	}
}

// TestWatchJobWithoutTerminalEvent checks that a job whose event stream
// closes without its terminal event, as when the daemon drops events for a
// slow subscriber, still gets its state from the daemon instead of counting
// as failed.
func TestWatchJobWithoutTerminalEvent(t *testing.T) {
	srv, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Workers: 1, GridWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stop(srv)
	view, err := srv.Submit(jobs.Spec{Experiments: []string{"figure1"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := srv.Subscribe(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	for range events { // wait for the job to end
	}
	cancel()
	closed := make(chan jobs.Event)
	close(closed)
	rec := &jobRecord{id: view.ID}
	watchJob(srv, rec, closed)
	if rec.state != jobs.StateDone || rec.terminal.IsZero() {
		t.Errorf("state %q, terminal %v; want DONE with a terminal time", rec.state, rec.terminal)
	}
}

// TestCalibratorSlowdown checks that a host running the reference kernels at
// their nominal times reports no slowdown, that twice their times reports a
// slowdown of 2, and that a real chunk yields a positive, finite slowdown.
func TestCalibratorSlowdown(t *testing.T) {
	if got := (calSample{}).slowdown(); got != 1 {
		t.Errorf("no chunks: slowdown %v, want 1", got)
	}
	s := calSample{gather: 3 * calGatherNominal, sort: 3 * calSortNominal, chunks: 3}
	if got := s.slowdown(); got != 1 {
		t.Errorf("nominal chunks: slowdown %v, want 1", got)
	}
	s = calSample{gather: 4 * calGatherNominal, sort: 4 * calSortNominal, chunks: 2}
	if got := s.slowdown(); got < 1.999 || got > 2.001 {
		t.Errorf("twice nominal: slowdown %v, want 2", got)
	}
	var real calSample
	newCalibrator().chunk(&real)
	if got := real.slowdown(); !(got > 0 && got < 1e3) || real.chunks != 1 {
		t.Errorf("one chunk: slowdown %v over %d chunks", got, real.chunks)
	}
}
