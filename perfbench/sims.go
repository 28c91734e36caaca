package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"time"

	"udwn"
	"udwn/internal/baseline"
	"udwn/internal/core"
	"udwn/internal/faults"
	"udwn/internal/metrics"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

// simStats is what one simulation (one op of a simulation workload) did and
// what it cost. The first block is simulated and must repeat exactly under
// any speed-only change; the rest is host time and layer work.
type simStats struct {
	digest uint64
	ticks  int
	n      int
	tx     int64
	mass   int64
	events int64 // injected fault events

	latency time.Duration // op start → completion, world building included
	cal     calSample     // the host's slowdown meanwhile (see calibrator)
	cold    bool          // first simulation of its runner cell
	heap    uint64        // live heap it added, world included
	gen     time.Duration
	newSim  time.Duration
	step    time.Duration
	newCall int
	panic   string

	// Traced passes only.
	steps     []time.Duration // each Step call
	newAlloc  uint64
	idx       sim.IndexStats
	field     sim.FieldStats
	wheel     sim.WheelStats
	dropCalls int64
	dropped   int64
}

// simEnv carries one pass's state into the workload code.
type simEnv struct {
	cal    *calibrator
	tr     *tracer // nil on untraced passes
	passID int64
	req    string
	reg    *metrics.Registry // the metrics registry traced passes enable
	ops    []*simStats
}

// op runs one simulation of the pass, recovering a panic into a failed op.
// Around the timed part it takes the live heap, the second time with the
// simulation still reachable, so that st.heap is the bytes its data
// structures hold: a figure that repeats from run to run, unlike the
// process's peak resident set. The reference kernels run once before and
// once after the simulation and between its slots; st.latency leaves
// their time out.
func (e *simEnv) op(body func(o *simOp)) {
	base := liveHeap()
	st := &simStats{}
	e.ops = append(e.ops, st)
	o := &simOp{env: e, st: st}
	e.cal.chunk(&st.cal)
	before := st.cal.spent
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				st.panic = fmt.Sprint(p)
			}
		}()
		body(o)
	}()
	st.latency = time.Since(start) - (st.cal.spent - before)
	e.cal.chunk(&st.cal)
	if h := liveHeap(); h > base {
		st.heap = h - base
	}
	runtime.KeepAlive(o)
}

// simOp wraps the layer calls of one simulation with timers and spans. It
// keeps the simulation and its network reachable until op has measured the
// live heap.
type simOp struct {
	env *simEnv
	st  *simStats
	sim *sim.Sim
	nw  *udwn.Network
}

func (o *simOp) traced() bool { return o.env.tr != nil }

// gen times topology generation.
func (o *simOp) gen(build func() *udwn.Network) *udwn.Network {
	t0 := time.Now()
	nw := build()
	t1 := time.Now()
	o.st.gen += t1.Sub(t0)
	o.env.tr.add(spanGen, o.env.req, o.env.passID, t0, t1)
	return nw
}

// newSim times NewSim and, on traced passes, the bytes it allocated.
func (o *simOp) newSim(nw *udwn.Network, f sim.ProtocolFactory, so udwn.SimOptions) *sim.Sim {
	var before runtime.MemStats
	if o.traced() {
		so.Metrics = o.env.reg
		so.IndexMetrics = true
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	s, err := nw.NewSim(f, so)
	t1 := time.Now()
	if err != nil {
		panic(err)
	}
	o.st.newSim += t1.Sub(t0)
	o.st.newCall++
	o.sim, o.nw = s, nw
	if o.traced() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		o.st.newAlloc += after.TotalAlloc - before.TotalAlloc
		o.env.tr.add(spanNewSim, o.env.req, o.env.passID, t0, t1)
	}
	return s
}

// run steps s until done holds or maxTicks slots have run — the loop
// sim.Sim.RunUntil runs, with each Step timed — then digests the outcome.
// first is the per-node completion vector the predicate checks.
func (o *simOp) run(s *sim.Sim, done func(*sim.Sim) bool, maxTicks int, first func(v int) int) {
	tr, cal := o.env.tr, o.env.cal
	t0 := time.Now()
	runID := tr.reserve(spanRun, o.env.req, o.env.passID, t0)
	ticks := 0
	for ticks < maxTicks {
		a := time.Now()
		s.Step()
		b := time.Now()
		o.st.step += b.Sub(a)
		if tr != nil {
			o.st.steps = append(o.st.steps, b.Sub(a))
		}
		tr.add(spanStep, o.env.req, runID, a, b)
		ticks++
		if done(s) {
			break
		}
		cal.due(b, &o.st.cal)
	}
	tr.finish(runID, time.Now())

	st := o.st
	st.ticks, st.n = ticks, s.N()
	st.tx, st.mass = s.TotalTransmissions(), s.TotalMassDeliveries()
	st.idx, st.field, st.wheel = s.IndexStats(), s.FieldStats(), s.WheelStats()
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range []int64{int64(ticks), st.tx, st.mass} {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for v := 0; v < s.N(); v++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(first(v))))
		h.Write(buf[:])
	}
	st.digest = h.Sum64()
}

// injector returns what the sim should see as its fault injector: the engine
// itself, or on traced passes a counting wrapper around it.
func (o *simOp) injector(eng *faults.Engine) sim.Injector {
	if !o.traced() {
		return eng
	}
	return &countingInjector{Engine: eng, st: o.st}
}

// countingInjector forwards every method faults.Engine implements —
// QuiescentUntil included, so the simulator's quiescence contract is
// unchanged — and counts DropRecv calls and drops.
type countingInjector struct {
	*faults.Engine
	st *simStats
}

var (
	_ sim.Injector          = (*countingInjector)(nil)
	_ sim.QuiescentInjector = (*countingInjector)(nil)
)

func (c *countingInjector) DropRecv(u, v, tick int) bool {
	c.st.dropCalls++
	d := c.Engine.DropRecv(u, v, tick)
	if d {
		c.st.dropped++
	}
	return d
}

// simWorkload is one simulation workload. A pass runs cells runner cells,
// the cell seeds cells·seed … cells·seed+cells−1 of the workload seed, each
// simulation of a cell once; a traced pass runs the first of them only. An
// untraced run makes passes passes. Several cells per pass keep the
// latency medians and tails from resting on one topology: the cost of a
// single simulation varies by a fifth from one seed to the next.
type simWorkload struct {
	cell   func(e *simEnv, seed int, short bool)
	cells  int
	passes int
	// expected holds the per-simulation digests of the default seed, full
	// size and short mode.
	expected, expectedShort []uint64
}

// uniformNetwork is the experiment runners' uniform SINR deployment: n nodes
// with expected degree delta.
func uniformNetwork(n, delta int, phy udwn.PHY, topoSeed uint64) *udwn.Network {
	rb := (1 - phy.Eps) * phy.Range
	side := workload.SideForDegree(n, delta, rb)
	return udwn.NewSINRNetwork(workload.UniformDisc(n, side, topoSeed), phy)
}

// localDense is one table1 cell (Cor. 4.3): LocalBcast with CD+ACK, Decay and
// FixedProb(Δ) with free acknowledgements, on one uniform network, each run
// until every node mass-delivered.
func localDense(e *simEnv, seed int, short bool) {
	n, delta := 1024, 64
	if short {
		n, delta = 192, 16
	}
	phy := udwn.DefaultPHY()
	maxTicks := 400*delta + 200*n
	runSeed := uint64(seed + 1)
	protos := []struct {
		factory sim.ProtocolFactory
		prims   sim.Primitives
	}{
		{func(id int) sim.Protocol { return core.NewLocalBcast(n, int64(id)) }, sim.CD | sim.ACK},
		{func(id int) sim.Protocol { return baseline.NewDecay(n, int64(id)) }, sim.FreeAck},
		{func(id int) sim.Protocol { return baseline.NewFixedProb(delta, 1, int64(id)) }, sim.FreeAck},
	}
	var nw *udwn.Network
	for _, p := range protos {
		e.op(func(o *simOp) {
			if nw == nil {
				o.st.cold = true
				nw = o.gen(func() *udwn.Network { return uniformNetwork(n, delta, phy, uint64(100*delta+seed)) })
			}
			s := o.newSim(nw, p.factory, udwn.SimOptions{Seed: runSeed, Primitives: p.prims})
			o.run(s, func(s *sim.Sim) bool {
				for v := 0; v < n; v++ {
					if s.FirstMassDelivery(v) < 0 {
						return false
					}
				}
				return true
			}, maxTicks, s.FirstMassDelivery)
		})
	}
}

// faultScenarios are the table12 rows the faults-mixed workload runs, with
// their row index there (the fault seeds derive from it).
var faultScenarios = []struct {
	row  int
	spec faults.Spec
}{
	{3, faults.Spec{JamFraction: 0.02}},
	{4, faults.Spec{JamFraction: 0.10}},
	{5, faults.Spec{DeafFraction: 0.10}},
	{6, faults.Spec{DropRate: 0.20}},
	{9, faults.Spec{CrashRate: 0.002, CrashDowntime: 100,
		JamFraction: 0.02, DropRate: 0.10, SenseRate: 0.05}},
}

// faultsMixed is the table12 LocalBcast and Bcast pair under five fault
// specs, each run until every healthy (non-jammed, non-deaf) node completed.
// As in table12, each (spec, seed) pair is a runner cell of its own, which
// runs LocalBcast first and Bcast second.
func faultsMixed(e *simEnv, seed int, short bool) {
	n, delta, maxTicks := 256, 16, 6000
	if short {
		n, maxTicks = 96, 2500
	}
	phy := udwn.DefaultPHY()
	for _, sc := range faultScenarios {
		e.op(func(o *simOp) {
			o.st.cold = true
			spec := sc.spec
			spec.Seed = uint64(12100 + 131*sc.row + seed)
			eng := faults.New(spec)
			nw := o.gen(func() *udwn.Network { return uniformNetwork(n, delta, phy, uint64(21000+seed)) })
			s := o.newSim(nw, func(id int) sim.Protocol {
				return core.NewLocalBcast(n, int64(id))
			}, udwn.SimOptions{Seed: uint64(seed + 1), Primitives: sim.CD | sim.ACK, Injector: o.injector(eng)})
			healthy := healthyNodes(eng, n)
			o.run(s, func(s *sim.Sim) bool { return allDone(healthy, s.FirstMassDelivery) }, maxTicks, s.FirstMassDelivery)
			o.st.events = eng.Counters().Total()
		})
		e.op(func(o *simOp) {
			spec := sc.spec
			spec.Seed = uint64(12800 + 131*sc.row + seed)
			spec.Protect = []int{0}
			eng := faults.New(spec)
			nw := o.gen(func() *udwn.Network { return uniformNetwork(n, delta, phy, uint64(22000+seed)) })
			s := o.newSim(nw, func(id int) sim.Protocol {
				return core.NewBcast(n, 3, 42, id == 0)
			}, udwn.SimOptions{Seed: uint64(seed + 1), Slots: 2, SenseEps: phy.Eps / 2,
				Primitives: sim.CD | sim.ACK | sim.NTD, Injector: o.injector(eng)})
			s.MarkInformed(0)
			healthy := healthyNodes(eng, n)
			o.run(s, func(s *sim.Sim) bool { return allDone(healthy, s.FirstDecode) }, maxTicks, s.FirstDecode)
			o.st.events = eng.Counters().Total()
		})
	}
}

// healthyNodes lists the nodes the engine has not made permanently faulty,
// table12's completion targets.
func healthyNodes(eng *faults.Engine, n int) []int {
	out := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !eng.Faulty(v) {
			out = append(out, v)
		}
	}
	return out
}

func allDone(nodes []int, first func(int) int) bool {
	for _, v := range nodes {
		if first(v) < 0 {
			return false
		}
	}
	return true
}

// passResult is one pass of a simulation workload.
type passResult struct {
	traced bool
	wall   time.Duration
	ops    []*simStats
}

// norm is a simulation's time on an undisturbed host: its latency over the
// host's slowdown meanwhile (see calibrator).
func (o *simStats) norm() float64 { return o.latency.Seconds() / o.cal.slowdown() }

// norm returns the pass's time and its world building (workload generation
// and NewSim) on an undisturbed host, and the host's median slowdown over
// its simulations.
func (p passResult) norm() (wall, setup, slowdown float64) {
	var slowdowns []float64
	for _, o := range p.ops {
		wall += o.norm()
		setup += (o.gen + o.newSim).Seconds() / o.cal.slowdown()
		slowdowns = append(slowdowns, o.cal.slowdown())
	}
	return wall, setup, median(slowdowns)
}

// runSimWorkload runs passes of w on one seed. An untraced run makes
// w.passes passes, so that every run takes its medians over the same number
// of repeats; it stops early only when the next pass would overrun the
// budget. A traced run makes four passes of the first cell: traced,
// untraced, untraced, traced, so that neither kind always runs first and
// the tracing overhead compares the medians of two passes each.
func runSimWorkload(w simWorkload, cfg config) (*outcome, error) {
	var (
		passes []passResult
		tr     *tracer
		reg    *metrics.Registry
	)
	kinds := make([]bool, w.passes) // whether each pass is traced
	base, cells := w.cells*cfg.seed, w.cells
	if cfg.short {
		kinds, base, cells = kinds[:min(2, len(kinds))], cfg.seed, 1
	}
	if cfg.trace {
		tr, reg = &tracer{}, metrics.NewRegistry()
		kinds, cells = []bool{true, false, false, true}, 1
	}
	cal := newCalibrator()
	var notes []string
	start := time.Now()
	for i, traced := range kinds {
		if i >= 2 && time.Since(start)+passes[i-1].wall > cfg.budget {
			notes = append(notes, fmt.Sprintf("budget reached: %d of %d passes", i, len(kinds)))
			break
		}
		env := &simEnv{cal: cal, req: "pass-" + strconv.Itoa(i)}
		if traced {
			env.tr, env.reg = tr, reg
		}
		t0 := time.Now()
		env.passID = env.tr.reserve(spanPass, env.req, 0, t0)
		for j := 0; j < cells; j++ {
			w.cell(env, base+j, cfg.short)
		}
		t1 := time.Now()
		env.tr.finish(env.passID, t1)
		passes = append(passes, passResult{traced: traced, wall: t1.Sub(t0), ops: env.ops})
	}

	out := &outcome{notes: notes}
	expected := w.expected
	if cfg.short {
		expected = w.expectedShort
	}
	if cfg.seed != defaultSeed {
		expected = nil
	}
	if cfg.expectOverride != nil {
		expected = cfg.expectOverride
	}
	checkDigests(out, passes, expected)

	if cfg.trace {
		simLayers(out, passes, tr)
	} else {
		simEndToEnd(out, passes)
	}
	return out, nil
}

// checkDigests counts every simulation as one attempted op and fails those
// that panicked, disagree with the recorded digest of the default seed, or
// disagree with the same simulation in the first pass (traced passes
// included), which must hold for every seed.
func checkDigests(out *outcome, passes []passResult, expected []uint64) {
	ref := passes[0].ops
	for pi, p := range passes {
		for i, o := range p.ops {
			out.attempted++
			switch {
			case o.panic != "":
				out.fail("pass %d sim %d panicked: %s", pi, i, o.panic)
			case expected != nil && (i >= len(expected) || o.digest != expected[i]):
				out.fail("pass %d sim %d digest %#x, recorded %#x", pi, i, o.digest, at(expected, i))
			case len(ref) != len(p.ops) || o.digest != ref[i].digest:
				out.fail("pass %d sim %d digest %#x differs from pass 0", pi, i, o.digest)
			}
		}
	}
}

func at(xs []uint64, i int) uint64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// simEndToEnd reports the end-to-end metrics of untraced passes. Every
// time is on an undisturbed host (see calibrator) and a median over the
// passes: wall_s and setup_s of the pass totals, the job latencies of each
// simulation's own times.
//
// A job is one simulation: cold when it is the first of its runner cell,
// warm when it is a later one. A table1 cell builds its network for its
// first simulation and shares it with the later ones; a table12 cell runs
// LocalBcast first and Bcast second, each on a world of its own.
func simEndToEnd(out *outcome, passes []passResult) {
	var walls, setups, slowdowns, raw []float64
	var heap uint64
	for _, p := range passes {
		wall, setup, slowdown := p.norm()
		walls = append(walls, wall)
		setups = append(setups, setup)
		slowdowns = append(slowdowns, slowdown)
		raw = append(raw, p.wall.Seconds())
		for _, o := range p.ops {
			heap = max(heap, o.heap)
		}
	}
	var cold, warm []float64
	for i, o := range passes[0].ops {
		var times []float64
		for _, p := range passes {
			times = append(times, 1e3*p.ops[i].norm())
		}
		if o.cold {
			cold = append(cold, median(times))
		} else {
			warm = append(warm, median(times))
		}
	}
	coldTail, which := tail(cold)
	out.note("medians of %d passes; job_cold_tail_ms is the %s cold simulations", len(passes), which)
	out.note("pass walls (s): %.3f; host slowdown per pass: %.3f", raw, slowdowns)
	out.add("wall_s", median(walls))
	out.add("setup_s", median(setups))
	out.add("peak_heap_mb", float64(heap)/1e6)
	out.add("job_cold_p50_ms", median(cold))
	out.add("job_cold_tail_ms", coldTail)
	out.add("job_warm_p50_ms", median(warm))
	out.addOK()
}

// simLayers reports the per-layer metrics: medians per traced pass for
// times, per-pass totals for counts (identical in every pass), and the
// tracing overhead against the untraced passes of the same run.
func simLayers(out *outcome, passes []passResult, tr *tracer) {
	var (
		plainWall, tracedWall           []float64
		gen, newS, newMB, stepS, nodeSl []float64
		stepNs                          []float64
		traced                          int
		last                            passResult
	)
	for _, p := range passes {
		wall, _, _ := p.norm()
		if !p.traced {
			plainWall = append(plainWall, wall)
			continue
		}
		traced++
		last = p
		tracedWall = append(tracedWall, wall)
		var g, ns, st time.Duration
		var alloc uint64
		var nodeSlots float64
		for _, o := range p.ops {
			g += o.gen
			ns += o.newSim
			st += o.step
			alloc += o.newAlloc
			nodeSlots += float64(o.ticks) * float64(o.n)
			for _, d := range o.steps {
				stepNs = append(stepNs, float64(d.Nanoseconds()))
			}
		}
		gen = append(gen, g.Seconds())
		newS = append(newS, ns.Seconds())
		newMB = append(newMB, float64(alloc)/1e6)
		stepS = append(stepS, st.Seconds())
		nodeSl = append(nodeSl, ratio(nodeSlots, st.Seconds()))
	}
	var c struct {
		calls, ticks                      int
		txq, cand, lazy, reuse, delta, rb int64
		skipped, tx, mass, events         int64
		dropCalls, dropped                int64
	}
	for _, o := range last.ops {
		c.calls += o.newCall
		c.ticks += o.ticks
		c.txq += o.idx.TxQueries
		c.cand += o.idx.Candidates
		c.lazy += o.field.LazyEvals
		c.reuse += o.field.ReusedSlots
		c.delta += o.field.DeltaSlots
		c.rb += o.field.RebuildSlots
		c.skipped += o.wheel.SkippedSlots
		c.tx += o.tx
		c.mass += o.mass
		c.events += o.events
		c.dropCalls += o.dropCalls
		c.dropped += o.dropped
	}
	out.add("workload.gen_s", median(gen))
	out.add("sim.new_s", median(newS))
	out.add("sim.new_calls", float64(c.calls))
	out.add("sim.new_alloc_mb", median(newMB))
	out.add("sim.step_s", median(stepS))
	out.add("sim.step_p50_us", quantile(stepNs, 0.5)/1e3)
	out.add("sim.step_p99_us", quantile(stepNs, 0.99)/1e3)
	out.add("sim.node_slots_per_s", median(nodeSl))
	out.add("sim.index.candidates_per_tx", ratio(float64(c.cand), float64(c.txq)))
	out.add("sim.field.lazy_evals", float64(c.lazy))
	out.add("sim.field.reuse_ratio", ratio(float64(c.reuse), float64(c.reuse+c.delta+c.rb)))
	out.add("sim.wheel.skipped_slots", float64(c.skipped))
	out.add("sim.ticks", float64(c.ticks))
	out.add("core.tx", float64(c.tx))
	out.add("core.mass_per_tx", ratio(float64(c.mass), float64(c.tx)))
	out.add("faults.events", float64(c.events))
	out.add("faults.droprecv_calls", float64(c.dropCalls))
	out.add("faults.drop_ratio", ratio(float64(c.dropped), float64(c.dropCalls)))
	out.add("bench.trace_overhead_frac", ratio(median(tracedWall), median(plainWall))-1)
	out.addSelfTimes(tr, float64(traced))
	out.spans = tr
}
