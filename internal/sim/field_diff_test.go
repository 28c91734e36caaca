package sim

import (
	"fmt"
	"math"
	"testing"

	"udwn/internal/metric"
	"udwn/internal/metrics"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// fieldEpochs is the epoch matrix of the incremental-field differential
// suite: per-slot rebuild (degenerate), a short rail and the default rail.
var fieldEpochs = []int{1, 16, 256}

// fieldDiffScenarios is the scenario matrix: every model family crossed
// with channels, power scales, churn, mobility and fault injection — the
// full set of composition-mutation sources the incremental engine diffs.
func fieldDiffScenarios() []diffScenario {
	grey := func(d float64) bool { return math.Sin(d*13.7) > 0 }
	return []diffScenario{
		{name: "udg", n: 200, ticks: 140, seed: 41,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK | NTD},
		{name: "sinr", n: 200, ticks: 140, seed: 42,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK},
		{name: "sinr-lazy", n: 200, ticks: 140, seed: 43,
			// ACK without CD: the engine runs in lazy mode (only transmitters
			// and SINR decode checks read the field).
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: ACK},
		{name: "qudg-grey", n: 200, ticks: 140, seed: 44,
			model: func(func() int) model.Model { return model.NewQUDG(7, 11, grey) },
			prims: CD},
		{name: "rayleigh", n: 160, ticks: 100, seed: 45,
			model: func(tick func() int) model.Model {
				return model.NewRayleighSINR(1500, 1.5, 1, 3, 0.1, 5, tick)
			},
			prims: CD | ACK},
		{name: "channels-3", n: 200, ticks: 140, seed: 46, channels: 3,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD},
		{name: "channels-3-sinr-lazy", n: 200, ticks: 140, seed: 47, channels: 3,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: ACK},
		{name: "power-scales", n: 200, ticks: 140, seed: 48, scales: true,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK},
		{name: "churn", n: 200, ticks: 160, seed: 49, churn: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "mobility", n: 200, ticks: 160, seed: 50, dynamic: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
		{name: "mobility-sinr-scales", n: 160, ticks: 120, seed: 51, dynamic: true, scales: true,
			model: func(func() int) model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) },
			prims: CD | ACK | NTD},
		{name: "faults", n: 200, ticks: 160, seed: 52, inject: true, dynamic: true,
			model: func(func() int) model.Model { return model.NewUDG(10) },
			prims: CD | ACK},
	}
}

// runFieldDiff runs sc under the given field mode and epoch with a fresh
// metrics registry, returning the serialized history with the registry
// snapshot appended — so the comparison covers observations, slot events,
// RSS bits, per-node outcomes AND every exported metric. IndexMetrics stays
// off: sim/field/* and sim/wheel/* work counters legitimately differ across
// modes, the behavioural instruments must not.
func runFieldDiff(t *testing.T, sc diffScenario, mode FieldMode, epoch int) string {
	t.Helper()
	reg := metrics.NewRegistry()
	history := runDiffCfg(t, sc, false, func(cfg *Config) {
		cfg.FieldMode = mode
		cfg.FieldEpoch = epoch
		cfg.Metrics = reg
	}, nil)
	return history + reg.Snapshot().String()
}

// TestIncrementalFieldEquivalence is the differential suite of the
// incremental interference field: for every scenario and epoch, the
// incremental driver must produce the byte-identical history and metrics
// snapshot as the brute recompute driver. Short mode runs a curated subset;
// the full matrix runs otherwise (and raced in ci.sh).
func TestIncrementalFieldEquivalence(t *testing.T) {
	scenarios := fieldDiffScenarios()
	epochs := fieldEpochs
	if testing.Short() {
		scenarios = []diffScenario{scenarios[1], scenarios[2], scenarios[5], scenarios[9], scenarios[11]}
		epochs = []int{1, 256}
	}
	for _, sc := range scenarios {
		for _, epoch := range epochs {
			sc, epoch := sc, epoch
			t.Run(fmt.Sprintf("%s/epoch%d", sc.name, epoch), func(t *testing.T) {
				inc := runFieldDiff(t, sc, FieldIncremental, epoch)
				rec := runFieldDiff(t, sc, FieldRecompute, epoch)
				if inc != rec {
					t.Fatalf("incremental and recompute histories diverge:\n%s",
						firstDiffLine(inc, rec))
				}
			})
		}
	}
}

// TestIncrementalFieldModesExercised guards the differential suite against
// vacuity: a broad (CD) static scenario must hit the reuse/delta/rebuild
// paths, a lazy (ACK-only) scenario must resolve through lazy evaluations,
// and the epoch rail must fire when enabled.
func TestIncrementalFieldModesExercised(t *testing.T) {
	run := func(prims Primitives, epoch int, p float64) (*Sim, FieldStats) {
		t.Helper()
		s := newFieldTestSim(t, 160, 61, prims, FieldIncremental, epoch, p)
		s.Run(400)
		return s, s.FieldStats()
	}

	// p=0.01 keeps ~20% of slots transmitter-free, so consecutive empty
	// compositions (the reuse path) and empty→nonempty appends both occur.
	s, st := run(CD|ACK, 256, 0.01)
	if st.RebuildSlots == 0 {
		t.Errorf("broad run: no rebuild slots (stats %+v)", st)
	}
	if st.ReusedSlots == 0 {
		t.Errorf("broad run: no reused slots — sparse tx should repeat compositions (stats %+v)", st)
	}
	if st.EpochRebuilds == 0 {
		t.Errorf("broad run: epoch rail never fired (stats %+v)", st)
	}
	if st.LazyEvals != 0 {
		t.Errorf("broad run: unexpected lazy evals (stats %+v)", st)
	}
	if got := s.FieldStats(); got != st {
		t.Errorf("FieldStats accessor unstable: %+v vs %+v", got, st)
	}

	_, st = run(ACK, 256, 0.01)
	if st.LazyEvals == 0 {
		t.Errorf("lazy run: no lazy evaluations (stats %+v)", st)
	}
	if st.DeltaSlots != 0 || st.RebuildSlots != 0 {
		t.Errorf("lazy run: eager materialization unexpected (stats %+v)", st)
	}

	// Epoch 1 degenerates to a rebuild every slot.
	_, st = run(CD|ACK, 1, 0.01)
	if st.ReusedSlots != 0 || st.DeltaSlots != 0 || st.RebuildSlots != 0 {
		t.Errorf("epoch-1 run: non-epoch slots present (stats %+v)", st)
	}
	if st.EpochRebuilds == 0 {
		t.Errorf("epoch-1 run: no epoch rebuilds (stats %+v)", st)
	}

	// Recompute mode and field-oblivious runs have no engine at all.
	s = newFieldTestSim(t, 160, 61, CD|ACK, FieldRecompute, 0, 0.01)
	s.Run(100)
	if st := s.FieldStats(); st != (FieldStats{}) {
		t.Errorf("recompute run accumulated field stats: %+v", st)
	}
}

// TestFieldAppendPath pins the append fast path: a monotone-id set of
// persistent transmitters (each new transmitter id above every previous
// one) must resolve through delta slots, byte-identically to recompute.
func TestFieldAppendPath(t *testing.T) {
	mk := func(mode FieldMode) (*Sim, []uint64) {
		s := newFieldTestSimProto(t, 120, 71, CD|ACK, mode, 256, func(id int) Protocol {
			// Node id starts transmitting at tick 3*id and never stops:
			// additions arrive in ascending id order, one at a time.
			return &rampProto{id: id}
		})
		var sums []uint64
		for i := 0; i < 90; i++ {
			s.Step()
			h := uint64(0)
			for v := 0; v < s.n; v++ {
				h = h*0x100000001b3 ^ math.Float64bits(s.fieldAt(v))
			}
			sums = append(sums, h)
		}
		return s, sums
	}
	si, inc := mk(FieldIncremental)
	_, rec := mk(FieldRecompute)
	for i := range inc {
		if inc[i] != rec[i] {
			t.Fatalf("field hash diverges at tick %d", i)
		}
	}
	if st := si.FieldStats(); st.DeltaSlots == 0 {
		t.Errorf("append path never taken: %+v", st)
	}
}

// rampProto makes node id a persistent transmitter from tick 3*id on.
type rampProto struct {
	id, t int
}

func (r *rampProto) Act(n *Node, slot int) Action {
	t := r.t
	r.t++
	if t >= 3*r.id {
		return Action{Transmit: true, Msg: Message{Kind: 7, Data: int64(r.id)}}
	}
	return Action{}
}

func (r *rampProto) Observe(n *Node, slot int, obs *Observation) {}

// newFieldTestSim builds a static SINR sim with fixed-probability traffic.
func newFieldTestSim(t *testing.T, n int, seed uint64, prims Primitives,
	mode FieldMode, epoch int, p float64) *Sim {
	t.Helper()
	return newFieldTestSimProto(t, n, seed, prims, mode, epoch,
		func(int) Protocol { return fixedProb(p) })
}

func newFieldTestSimProto(t *testing.T, n int, seed uint64, prims Primitives,
	mode FieldMode, epoch int, factory ProtocolFactory) *Sim {
	t.Helper()
	pts := workload.UniformDisc(n, workload.SideForDegree(n, 16, 9), seed)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed:       seed,
		Primitives: prims,
		FieldMode:  mode,
		FieldEpoch: epoch,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
