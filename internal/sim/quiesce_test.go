package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"udwn/internal/geom"
	"udwn/internal/metric"
	"udwn/internal/metrics"
	"udwn/internal/model"
	"udwn/internal/workload"
)

// sleeper is a periodic transmitter honouring the Quiescent contract: it
// transmits, sleeps `period` slots, and repeats until its transmission
// budget is spent, after which it is silent forever. It consumes no RNG, so
// skipped slots cannot desynchronise anything.
type sleeper struct {
	period int // silent slots between transmissions
	c      int // silent slots remaining before the next transmission
	left   int // transmissions remaining
}

var _ Quiescent = (*sleeper)(nil)

func (s *sleeper) Act(n *Node, slot int) Action {
	if s.left == 0 {
		return Action{}
	}
	if s.c > 0 {
		s.c--
		return Action{}
	}
	s.c = s.period
	s.left--
	return Action{Transmit: true, Msg: Message{Kind: 3, Data: int64(n.ID)}}
}

func (s *sleeper) Observe(n *Node, slot int, obs *Observation) {}

func (s *sleeper) QuiescentFor() int {
	if s.left == 0 {
		return maxQuietWindow
	}
	return s.c
}

func (s *sleeper) SkipQuiet(ticks int) { s.c -= ticks }

// runQuiesce runs the quiescence scenario — mixed-phase sleepers with a long
// all-done tail, plus mid-window churn and mobility — and returns the full
// observable history (slot events, per-node outcomes, metrics snapshot) and
// the wheel statistics.
func runQuiesce(t *testing.T, mdl model.Model, prims Primitives, disable bool) (string, WheelStats) {
	t.Helper()
	const n = 30
	const ticks = 400
	var log strings.Builder
	reg := metrics.NewRegistry()
	side := workload.SideForDegree(n, 10, 10)
	pts := workload.UniformDisc(n, side, 31)
	s, err := New(Config{
		Space: metric.NewEuclidean(pts),
		Model: mdl,
		P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
		Seed:              31,
		Primitives:        prims,
		Dynamic:           true,
		TrackCoverage:     true,
		Metrics:           reg,
		DisableQuiescence: disable,
		Observer: func(ev SlotEvent) {
			fmt.Fprintf(&log, "e %d tx=%v d=%d md=%v cb=%d ci=%d a=%d nt=%d\n",
				ev.Tick, ev.Transmitters, ev.Decodes, ev.MassDeliverers,
				ev.CDBusy, ev.CDIdle, ev.Acks, ev.NTDs)
		},
	}, func(id int) Protocol {
		return &sleeper{
			period: 3 + (id%3)*3,
			c:      id % 4,
			left:   3 + id%4,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ticks; i++ {
		// Mutations land both mid-activity (tick 40) and deep inside the
		// all-done quiescent tail (ticks ≥ 150), so the wake-flush path is
		// exercised while a skip window is armed.
		switch i {
		case 40:
			s.Kill(5)
		case 60:
			s.Revive(5)
		case 150:
			s.Kill(11)
		case 230:
			s.Revive(11)
		case 310:
			if err := s.Move(7, geom.Point{X: side / 3, Y: side / 4}); err != nil {
				t.Fatal(err)
			}
		}
		s.Step()
	}
	for v := 0; v < s.N(); v++ {
		fmt.Fprintf(&log, "f %d %v %d %d %d %d %d %d\n", v, s.Alive(v),
			s.FirstDecode(v), s.FirstMassDelivery(v), s.Transmissions(v),
			s.MassDeliveries(v), s.FirstFullCoverage(v), s.CoverageCount(v))
	}
	fmt.Fprintf(&log, "t %d %d %d\n", s.TotalTransmissions(), s.TotalMassDeliveries(), s.InvalidOps())
	log.WriteString(reg.Snapshot().String())
	return log.String(), s.WheelStats()
}

// TestQuiescenceSkipTransparent is the metamorphic suite of the event wheel:
// a run with quiescence skipping enabled must produce the byte-identical
// observable history — slot events (including synthesised ones for skipped
// slots), decode/delivery times, coverage, metrics snapshot — as the same
// run executed slot by slot, while actually skipping a nontrivial number of
// slots.
func TestQuiescenceSkipTransparent(t *testing.T) {
	cases := []struct {
		name  string
		mdl   func() model.Model
		prims Primitives
	}{
		// CD exercises the synthesised cdIdle accounting; the SINR and ACK
		// cases additionally pin the incremental field's baseline across
		// skipped windows (the wake slot diffs against the pre-window
		// composition). SINR with ACK alone runs the broad field mode (its
		// decode rule reads the field); UDG with ACK alone runs it lazy.
		{"udg-cd", func() model.Model { return model.NewUDG(10) }, CD | ACK | NTD},
		{"sinr-cd", func() model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) }, CD | ACK},
		{"sinr-lazy", func() model.Model { return model.NewSINR(1500, 1.5, 1, 3, 0.1) }, ACK},
		{"udg-ack-lazy", func() model.Model { return model.NewUDG(10) }, ACK},
		{"udg-bare", func() model.Model { return model.NewUDG(10) }, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wheel, ws := runQuiesce(t, tc.mdl(), tc.prims, false)
			plain, ps := runQuiesce(t, tc.mdl(), tc.prims, true)
			if wheel != plain {
				t.Fatalf("wheel and slot-by-slot histories diverge:\n%s",
					firstDiffLine(wheel, plain))
			}
			if ws.Windows == 0 || ws.SkippedSlots == 0 {
				t.Fatalf("wheel never skipped (stats %+v) — transparency test is vacuous", ws)
			}
			// The all-done tail dominates the run; most slots must be skipped.
			if ws.SkippedSlots < 100 {
				t.Errorf("wheel skipped only %d slots of the quiescent tail", ws.SkippedSlots)
			}
			if ps != (WheelStats{}) {
				t.Errorf("DisableQuiescence run recorded wheel activity: %+v", ps)
			}
		})
	}
}

// TestQuiescenceDeterministicAcrossWorkers is the purity property of the
// wheel: arm/fire order (and thus the entire history plus the wheel
// statistics) is a function of the seed alone, byte-identical across eight
// concurrent goroutines and the sequential run. Run under -race in CI.
func TestQuiescenceDeterministicAcrossWorkers(t *testing.T) {
	run := func() string {
		h, ws := runQuiesce(t, model.NewSINR(1500, 1.5, 1, 3, 0.1), CD|ACK, false)
		return fmt.Sprintf("%s\nw %d %d\n", h, ws.Windows, ws.SkippedSlots)
	}
	want := run()
	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run()
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Fatalf("worker %d diverged from sequential run:\n%s", w, firstDiffLine(g, want))
		}
	}
}

// TestQuiescentProtocolContracts pins the QuiescentFor/SkipQuiet algebra of
// the in-tree protocols against slot-by-slot execution: advancing a protocol
// through k silent slots via Act must leave it in the same state as one
// SkipQuiet(k), for every k within the promised window.
func TestQuiescentProtocolContracts(t *testing.T) {
	// The sleeper's own algebra, as used by the metamorphic suite above.
	for period := 1; period <= 5; period++ {
		for c := 1; c <= period; c++ {
			a := &sleeper{period: period, c: c, left: 2}
			b := &sleeper{period: period, c: c, left: 2}
			win := a.QuiescentFor()
			if win != c {
				t.Fatalf("sleeper(period=%d,c=%d).QuiescentFor() = %d", period, c, win)
			}
			n := &Node{ID: 1}
			for k := 0; k < win; k++ {
				if act := a.Act(n, 0); act.Transmit {
					t.Fatalf("sleeper transmitted inside its promised window (k=%d)", k)
				}
			}
			b.SkipQuiet(win)
			if *a != *b {
				t.Fatalf("sleeper state diverges: Act-path %+v vs SkipQuiet %+v", a, b)
			}
		}
	}
}
