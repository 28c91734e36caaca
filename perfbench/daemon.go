package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"udwn/internal/experiment"
	"udwn/internal/jobs"
)

// daemonExperiments is the job mix: the quick experiments that cost about
// 10 to 100 ms per seed, so that cold latencies spread without gaps around
// their median. table6, table10, table11 and table12 are left out because
// one of their cold jobs would hold a worker for seconds and turn the warm
// latency into a queueing measurement; figure2 and figure4 because a cold
// job of theirs costs no more than a warm one.
var daemonExperiments = []string{
	"figure1", "table1", "table2", "table3", "table4",
	"table5", "table7", "table8", "figure3", "table9",
}

const (
	maxJobSeeds  = 6    // jobs ask for 1..6 seed repetitions
	jobRate      = 40.0 // submissions per second of the open loop
	traceShare   = 0.25 // share of jobs submitted with Spec.Trace
	setupRepeats = 15   // daemon restarts timed per schedule for setup_s
)

// plannedJob is one submission of the open-loop schedule.
type plannedJob struct {
	due  time.Duration // offset from the start of the schedule
	spec jobs.Spec
	// cold marks a job whose (experiment, seed) cells no earlier submission
	// covered: it computes and stores them. Every other job is warm: all
	// its cells were asked for before, so the store replays them.
	cold bool
}

// planJobs builds the seeded schedule: jobRate submissions per second for d.
// Each experiment is asked for 1, 2, …, maxJobSeeds seeds in turn by cold
// jobs placed evenly through the schedule, so every seed runs the same cold
// work in a different order and no two cold jobs bunch up. Which cold jobs
// record a trace is fixed too; warm jobs repeat a random spec that an
// earlier cold job covered and record a trace at random.
func planJobs(seed int, d time.Duration, exps []string, maxSeeds int) []plannedJob {
	r := rand.New(rand.NewSource(int64(seed)))
	var coldOrder []int // indices into exps
	for i := range exps {
		for k := 0; k < maxSeeds; k++ {
			coldOrder = append(coldOrder, i)
		}
	}
	r.Shuffle(len(coldOrder), func(i, j int) { coldOrder[i], coldOrder[j] = coldOrder[j], coldOrder[i] })

	total := int(d.Seconds() * jobRate)
	if total < len(coldOrder) {
		total = len(coldOrder)
	}
	step := time.Duration(float64(time.Second) / jobRate)
	covered := make([]int, len(exps)) // seeds asked for so far, per experiment
	var seen []int                    // experiments with at least one covered seed
	plan := make([]plannedJob, total)
	next := 0
	for i := range plan {
		plan[i].due = time.Duration(i) * step
		// Seed, unique within the plan, also keys the attempt timer.
		spec := jobs.Spec{Quick: true, Seed: uint64(i)}
		if next < len(coldOrder) && i*len(coldOrder) >= next*total {
			e := coldOrder[next]
			next++
			if covered[e] == 0 {
				seen = append(seen, e)
			}
			covered[e]++
			spec.Experiments, spec.Seeds = []string{exps[e]}, covered[e]
			spec.Trace = (e+covered[e])%int(1/traceShare) == 0
			plan[i].cold = true
		} else {
			e := seen[r.Intn(len(seen))]
			spec.Experiments, spec.Seeds = []string{exps[e]}, 1+r.Intn(covered[e])
			spec.Trace = r.Float64() < traceShare
		}
		plan[i].spec = spec
	}
	return plan
}

// jobRecord is what the benchmark saw of one job.
type jobRecord struct {
	plan       plannedJob
	id         string
	due        time.Time
	late       time.Duration // how late the generator submitted it
	submit     time.Duration // the Submit call
	accepted   time.Time     // Submit returned
	started    time.Time     // traced rounds: the last attempt's start and end
	ended      time.Time
	terminal   time.Time
	state      jobs.State
	progress   []time.Time
	output     string
	err        error
	traceBytes int64
	// lostOnRestart marks a job whose output a restarted daemon no longer
	// served byte-identically.
	lostOnRestart bool
}

// schedule is one execution of a plan against a fresh daemon.
type schedule struct {
	records   []*jobRecord
	wall      time.Duration // first due → last terminal
	setup     []float64     // jobs.Open seconds of the restarts
	heap      uint64        // live heap the round added: daemon state and job records
	stats     daemonStats
	traceJobs int
}

type daemonStats struct {
	hits, misses, stores, dedupWaits int64
	journalBytes                     int64
	queueHighWater                   int64
}

// runSchedule runs plan from one goroutine against a daemon opened on a
// fresh state directory under work. Then it restarts the daemon
// setupRepeats times over the state the schedule left: each jobs.Open
// replays both journals, the daemon's set-up work, and the last restart
// must still serve every job's output.
func runSchedule(cfg config, plan []plannedJob, tr *tracer) (*schedule, error) {
	root, err := os.MkdirTemp(cfg.work, "daemon-")
	if err != nil {
		return nil, fmt.Errorf("daemon dir: %w", err)
	}
	defer os.RemoveAll(root)
	jcfg := jobs.Config{Dir: root, Workers: min(2, runtime.NumCPU()), GridWorkers: 1}
	var timer *attemptTimer
	if tr != nil {
		timer = newAttemptTimer()
		jcfg.Runner = timer.runner
	}
	base := liveHeap()
	srv, err := jobs.Open(jcfg)
	if err != nil {
		return nil, err
	}
	sc := &schedule{}

	var wg sync.WaitGroup
	start := time.Now()
	for _, p := range plan {
		rec := &jobRecord{plan: p, due: start.Add(p.due)}
		sc.records = append(sc.records, rec)
		if d := time.Until(rec.due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		rec.late = t0.Sub(rec.due)
		view, err := srv.Submit(p.spec)
		rec.accepted = time.Now()
		rec.submit = rec.accepted.Sub(t0)
		if err != nil {
			rec.err, rec.terminal = err, rec.accepted
			continue
		}
		rec.id = view.ID
		events, cancel, err := srv.Subscribe(view.ID)
		if err != nil {
			rec.err, rec.terminal = err, time.Now()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			watchJob(srv, rec, events)
		}()
	}
	wg.Wait()
	var last time.Time
	for _, rec := range sc.records {
		if rec.terminal.After(last) {
			last = rec.terminal
		}
	}
	sc.wall = last.Sub(start)

	for _, rec := range sc.records {
		if rec.id == "" {
			continue
		}
		rec.output, _, _ = srv.Result(rec.id)
		if timer != nil {
			rec.started, rec.ended = timer.times(rec.plan.spec.Seed)
		}
		if rec.plan.spec.Trace {
			sc.traceJobs++
			if path, err := srv.TraceFile(rec.id); err == nil {
				if fi, err := os.Stat(path); err == nil {
					rec.traceBytes = fi.Size()
				}
			}
		}
		traceJob(tr, rec)
	}
	st := srv.Store().Stats()
	sc.stats = daemonStats{
		hits: st.Hits, misses: st.Misses, stores: st.Stores, dedupWaits: st.DedupWaits,
		queueHighWater: srv.Metrics().Gauge("jobs/queue-high-water").Value(),
	}
	if n, err := srv.Store().JournalSize(); err == nil {
		sc.stats.journalBytes = n
	}
	if h := liveHeap(); h > base {
		sc.heap = h - base
	}
	if err := stop(srv); err != nil {
		return nil, err
	}

	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // drop the previous daemon's state before timing the next
		t0 := time.Now()
		s, err := jobs.Open(jcfg)
		if err != nil {
			return nil, err
		}
		sc.setup = append(sc.setup, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			for _, rec := range sc.records {
				if rec.id == "" {
					continue
				}
				if out, _, err := s.Result(rec.id); err != nil || out != rec.output {
					rec.lostOnRestart = true
				}
			}
		}
		if err := stop(s); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// attemptTimer wraps the daemon's default runner — the experiment runner
// with the default grid settings — and records when each job's attempt
// started and ended, keyed on Spec.Seed, which is unique within a plan.
type attemptTimer struct {
	base jobs.Runner
	mu   sync.Mutex
	span map[uint64][2]time.Time
}

func newAttemptTimer() *attemptTimer {
	return &attemptTimer{
		base: jobs.ExperimentRunner(1, 0, 1),
		span: make(map[uint64][2]time.Time),
	}
}

func (a *attemptTimer) runner(ctx context.Context, spec jobs.Spec, rc jobs.RunContext) (string, error) {
	start := time.Now()
	out, err := a.base(ctx, spec, rc)
	end := time.Now()
	a.mu.Lock()
	a.span[spec.Seed] = [2]time.Time{start, end}
	a.mu.Unlock()
	return out, err
}

func (a *attemptTimer) times(seed uint64) (start, end time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.span[seed]
	return s[0], s[1]
}

func stop(s *jobs.Server) error {
	if err := s.Drain(); err != nil {
		return err
	}
	return s.Close()
}

// watchJob records the times of a job's progress events and terminal state
// until its stream closes. The stream opens with the job's state at
// subscription, not with its transitions, so it cannot time the start of a
// job that a worker took before the benchmark subscribed; traced rounds time
// attempts in the runner instead (see attemptTimer). The server drops events
// for a subscriber that falls behind, so a stream can close without its
// terminal event; the job's state is then read from the server, and the
// close time stands for the terminal time.
func watchJob(srv *jobs.Server, rec *jobRecord, events <-chan jobs.Event) {
	for ev := range events {
		now := time.Now()
		switch {
		case ev.Type == "progress":
			rec.progress = append(rec.progress, now)
		case ev.State.Terminal():
			rec.terminal, rec.state = now, ev.State
		}
	}
	if rec.state == "" {
		rec.terminal = time.Now()
		if v, err := srv.View(rec.id); err == nil {
			rec.state = v.State
		}
	}
}

// traceJob records the spans of one finished job: the job from due to
// terminal, its Submit call, its wait in the queue, its attempt, and the
// grid cells of the attempt as the gaps between progress events.
func traceJob(tr *tracer, rec *jobRecord) {
	if tr == nil || rec.id == "" {
		return
	}
	root := tr.add(spanJob, rec.id, 0, rec.due, rec.terminal)
	tr.add(spanSubmit, rec.id, root, rec.accepted.Add(-rec.submit), rec.accepted)
	tr.add(spanQueue, rec.id, root, rec.accepted, rec.started)
	run := tr.add(spanJobRun, rec.id, root, rec.started, rec.ended)
	prev := rec.started
	for _, t := range rec.progress {
		tr.add(spanCell, rec.id, run, prev, t)
		prev = t
	}
}

// checkJobs counts every job as an op and fails those that were shed, did
// not finish DONE, return an output other than a direct experiment run of
// the same spec, or lost it across a restart. Identical specs share one
// reference, so a job also matches every earlier repeat of its spec.
func checkJobs(out *outcome, scheds []*schedule, tr *tracer) {
	refs := make(map[string]string)
	for _, sc := range scheds {
		for _, rec := range sc.records {
			out.attempted++
			spec := rec.plan.spec
			key := fmt.Sprintf("%s/%d", spec.Experiments[0], spec.Seeds)
			switch {
			case rec.err != nil:
				out.fail("job %s (%s): %v", rec.id, key, rec.err)
				continue
			case rec.state != jobs.StateDone:
				out.fail("job %s (%s) ended %s", rec.id, key, rec.state)
				continue
			}
			want, ok := refs[key]
			if !ok {
				t0 := time.Now()
				want = referenceOutput(spec)
				tr.add(spanReference, key, 0, t0, time.Now())
				refs[key] = want
			}
			switch {
			case rec.output != want:
				out.fail("job %s (%s): output differs from the direct experiment run", rec.id, key)
			case rec.lostOnRestart:
				out.fail("job %s (%s): output changed across a daemon restart", rec.id, key)
			}
		}
	}
}

// referenceOutput runs a job's experiments directly, rendering them the way
// jobs.ExperimentRunner does.
func referenceOutput(spec jobs.Spec) string {
	var s string
	for _, id := range spec.Experiments {
		e, _ := experiment.Lookup(id) // the daemon accepted the id
		res := e.Run(experiment.Options{Seeds: spec.Seeds, Quick: spec.Quick, Workers: runtime.NumCPU()})
		s += fmt.Sprintf("=== %s: %s ===\n%s\n", e.ID, e.Title, res)
	}
	return s
}

// runDaemon runs daemon-mixed: the same plan in four rounds against fresh
// daemons, each over a quarter of the budget, so that every job is timed
// four times. In trace mode the rounds are traced, untraced, untraced,
// traced, so that neither kind always runs first and the tracing overhead
// compares two rounds of each.
func runDaemon(cfg config) (*outcome, error) {
	exps, maxSeeds := daemonExperiments, maxJobSeeds
	if cfg.short {
		exps, maxSeeds = exps[:3], 2
	}
	kinds := []bool{false, false, false, false} // whether each round is traced
	if cfg.trace {
		kinds = []bool{true, false, false, true}
	}
	plan := planJobs(cfg.seed, cfg.budget/time.Duration(len(kinds)), exps, maxSeeds)
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	var plain, traced []*schedule
	for _, t := range kinds {
		var rtr *tracer
		if t {
			rtr = tr
		}
		sc, err := runSchedule(cfg, plan, rtr)
		if err != nil {
			return nil, err
		}
		if t {
			traced = append(traced, sc)
		} else {
			plain = append(plain, sc)
		}
	}
	out := &outcome{}
	checkJobs(out, append(plain, traced...), tr)
	if cfg.trace {
		daemonLayers(out, plain, traced, tr)
		out.spans = tr
	} else {
		daemonEndToEnd(out, plain)
	}
	return out, nil
}

// latencies splits the due → terminal latencies of the jobs of a plan into
// cold and warm, in milliseconds, keeping each job at its fastest over the
// given runs of the plan: noise from the host's other tenants only ever
// slows a job down.
func latencies(scheds ...*schedule) (cold, warm []float64) {
	for i, rec := range scheds[0].records {
		best := time.Duration(-1)
		for _, sc := range scheds {
			r := sc.records[i]
			if l := r.terminal.Sub(r.due); r.err == nil && (best < 0 || l < best) {
				best = l
			}
		}
		switch {
		case best < 0:
		case rec.plan.cold:
			cold = append(cold, ms(best))
		default:
			warm = append(warm, ms(best))
		}
	}
	return cold, warm
}

func daemonEndToEnd(out *outcome, rounds []*schedule) {
	var wall, setup []float64
	var heap uint64
	for _, sc := range rounds {
		heap = max(heap, sc.heap)
		wall = append(wall, sc.wall.Seconds())
		setup = append(setup, sc.setup...)
	}
	cold, warm := latencies(rounds...)
	coldTail, which := tail(cold)
	out.note("best of %d rounds; job_cold_tail_ms is the %s cold jobs; %d warm jobs", len(rounds), which, len(warm))
	out.note("restart jobs.Open times (s): %.5f", setup)
	out.add("wall_s", median(wall))
	out.add("setup_s", median(setup))
	out.add("peak_heap_mb", float64(heap)/1e6)
	out.add("job_cold_p50_ms", median(cold))
	out.add("job_cold_tail_ms", coldTail)
	out.add("job_warm_p50_ms", median(warm))
	out.addOK()
}

// daemonLayers reports the per-layer metrics of the traced schedules:
// latencies pooled over both, counts from the last. The tracing overhead
// compares the summed job latency of a traced schedule with that of an
// untraced one, as medians over the schedules of each kind, which all ran
// the same plan.
func daemonLayers(out *outcome, plain, traced []*schedule, tr *tracer) {
	var submit, queue, run, cells, late []float64
	var traceBytes int64
	var traceJobs int
	for _, sc := range traced {
		traceJobs += sc.traceJobs
		for _, rec := range sc.records {
			late = append(late, ms(rec.late))
			if rec.err != nil {
				continue
			}
			submit = append(submit, float64(rec.submit.Microseconds()))
			traceBytes += rec.traceBytes
			queue = append(queue, ms(rec.started.Sub(rec.accepted)))
			run = append(run, ms(rec.ended.Sub(rec.started)))
			if rec.plan.cold {
				prev := rec.started
				for _, t := range rec.progress {
					cells = append(cells, ms(t.Sub(prev)))
					prev = t
				}
			}
		}
	}
	queueTail, which := tail(queue)
	out.note("jobs.queue_wait_tail_ms is the %s jobs", which)
	st := traced[len(traced)-1].stats
	out.add("jobs.submit_p50_us", median(submit))
	out.add("jobs.queue_wait_p50_ms", median(queue))
	out.add("jobs.queue_wait_tail_ms", queueTail)
	out.add("jobs.run_p50_ms", median(run))
	out.add("jobs.queue_high_water", float64(st.queueHighWater))
	out.add("jobs.gen_late_ms", quantile(late, 1))
	out.add("experiment.cell_p50_ms", median(cells))
	out.add("checkpoint.hit_ratio", ratio(float64(st.hits), float64(st.hits+st.misses)))
	out.add("checkpoint.stores", float64(st.stores))
	out.add("checkpoint.dedup_waits", float64(st.dedupWaits))
	out.add("checkpoint.journal_mb", float64(st.journalBytes)/1e6)
	out.add("trace.bytes_per_job", ratio(float64(traceBytes), float64(traceJobs)))
	sums := func(scheds []*schedule) (totals []float64) {
		for _, sc := range scheds {
			cold, warm := latencies(sc)
			var total float64
			for _, l := range append(cold, warm...) {
				total += l
			}
			totals = append(totals, total)
		}
		return totals
	}
	out.add("bench.trace_overhead_frac", ratio(median(sums(traced)), median(sums(plain)))-1)
	out.addSelfTimes(tr, float64(len(traced)))
}
