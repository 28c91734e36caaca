package sim

import (
	"math"
	"testing"

	"udwn/internal/model"
)

// dropFirstScan is the reference reception driver of the decode-first
// differential test: the listener scan with the injector consulted before
// decoding, so DropRecv runs for every (alive listener, same-channel
// transmitter) pair, decodable or not. Production consults it only for
// pairs that decoded; the receptions must come out the same.
func dropFirstScan(s *Sim, inj Injector) {
	for v := 0; v < s.n; v++ {
		s.recvBuf[v] = s.recvBuf[v][:0]
	}
	mdl := s.cfg.Model
	for v := 0; v < s.n; v++ {
		if !s.alive[v] || s.isTxBuf[v] {
			continue
		}
		vw := &s.views[s.chanBuf[v]]
		for _, u := range vw.tx {
			if inj != nil && inj.DropRecv(u, v, s.tick) {
				continue
			}
			if s.scaleBuf[u] < 1 {
				maxRange := math.Pow(s.scaleBuf[u], 1/s.cfg.Zeta) * mdl.R()
				if s.cfg.Space.Dist(u, v) > maxRange {
					continue
				}
			}
			if mdl.Decodes(vw, u, v) {
				s.recvBuf[v] = append(s.recvBuf[v], Recv{
					From: u,
					Msg:  s.msgBuf[u],
					RSS:  s.field.Power(u, v) * s.scaleBuf[u],
				})
			}
		}
	}
}

// pairTick names one (transmitter, listener, tick) reception candidate.
type pairTick struct{ u, v, tick int }

// dropRecorder wraps an injector and counts its DropRecv calls per pair.
type dropRecorder struct {
	Injector
	calls map[pairTick]int
	drops int
}

func (r *dropRecorder) DropRecv(u, v, tick int) bool {
	r.calls[pairTick{u, v, tick}]++
	d := r.Injector.DropRecv(u, v, tick)
	if d {
		r.drops++
	}
	return d
}

// decodeRecorder wraps a model and counts its successful Decodes per pair.
// It forwards the optional extensions the simulator looks for, so wrapping
// changes neither the reception driver nor the field mode a run picks.
type decodeRecorder struct {
	model.Model
	tick    func() int
	decoded map[pairTick]int
}

func (m *decodeRecorder) Decodes(view model.View, u, v int) bool {
	ok := m.Model.Decodes(view, u, v)
	if ok {
		m.decoded[pairTick{u, v, m.tick()}]++
	}
	return ok
}

func (m *decodeRecorder) MaxDecodeRange() float64 {
	if rl, ok := m.Model.(model.RangeLimiter); ok {
		return rl.MaxDecodeRange()
	}
	return 0
}

func (m *decodeRecorder) FieldOblivious() bool {
	fo, ok := m.Model.(model.FieldOblivious)
	return ok && fo.FieldOblivious()
}

// dropRun is one recorded run of the decode-first differential test.
type dropRun struct {
	history string
	inj     *dropRecorder
	mdl     *decodeRecorder
}

// runDropDiff runs sc with the diff injector attached, recording every
// DropRecv call and every successful Decodes. oracle swaps in the
// drop-first reference driver.
func runDropDiff(t *testing.T, sc diffScenario, disableGrid, oracle bool) dropRun {
	t.Helper()
	var sp *Sim
	r := dropRun{
		inj: &dropRecorder{calls: map[pairTick]int{}},
		mdl: &decodeRecorder{tick: func() int { return sp.Tick() }, decoded: map[pairTick]int{}},
	}
	r.history = runDiffCfg(t, sc, disableGrid, func(cfg *Config) {
		r.mdl.Model = cfg.Model
		cfg.Model = r.mdl
		r.inj.Injector = cfg.Injector
		cfg.Injector = r.inj
	}, func(s *Sim) {
		sp = s
		if oracle {
			s.recvOracle = dropFirstScan
		}
	})
	return r
}

// TestDecodeFirstDropEquivalence pins the decode-first drop order: with an
// injector on every scenario of the grid/scan matrix, production — the
// indexed driver with the grid on, the listener scan with it off — must
// produce the byte-identical history (observations, slot events, RSS bits,
// per-node first-decode/first-mass/coverage, totals) as the drop-first
// reference scan, while asking DropRecv exactly once per decoded pair and
// only about pairs the reference asked about too.
func TestDecodeFirstDropEquivalence(t *testing.T) {
	scenarios := diffScenarios()
	if testing.Short() {
		keep := map[string]bool{"sinr": true, "rayleigh": true, "channels-3": true,
			"power-scales": true, "churn": true, "faults": true}
		var short []diffScenario
		for _, sc := range scenarios {
			if keep[sc.name] {
				short = append(short, sc)
			}
		}
		scenarios = short
	}
	for _, sc := range scenarios {
		sc.inject = true
		t.Run(sc.name, func(t *testing.T) {
			ref := runDropDiff(t, sc, true, true)
			for _, grid := range []bool{true, false} {
				got := runDropDiff(t, sc, !grid, false)
				if got.history != ref.history {
					t.Fatalf("grid=%v: decode-first and drop-first histories diverge:\n%s",
						grid, firstDiffLine(got.history, ref.history))
				}
				if len(got.inj.calls) != len(got.mdl.decoded) {
					t.Fatalf("grid=%v: %d DropRecv pairs for %d decoded pairs",
						grid, len(got.inj.calls), len(got.mdl.decoded))
				}
				for k, c := range got.inj.calls {
					if c != 1 || got.mdl.decoded[k] != 1 {
						t.Fatalf("grid=%v: pair %+v: %d DropRecv calls, %d decodes; want 1 and 1",
							grid, k, c, got.mdl.decoded[k])
					}
					if ref.inj.calls[k] == 0 {
						t.Fatalf("grid=%v: DropRecv%+v asked in production, never by the reference", grid, k)
					}
				}
				if got.inj.drops == 0 || len(got.inj.calls) >= len(ref.inj.calls) {
					t.Fatalf("grid=%v: vacuous run: %d drops, %d production calls vs %d reference calls",
						grid, got.inj.drops, len(got.inj.calls), len(ref.inj.calls))
				}
			}
		})
	}
}
