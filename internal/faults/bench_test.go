package faults

import (
	"testing"

	"udwn/internal/core"
	"udwn/internal/metric"
	"udwn/internal/model"
	"udwn/internal/sim"
	"udwn/internal/workload"
)

// BenchmarkStepFaulted times one slot of LocalBcast on a uniform n=1024
// SINR deployment under 10% stuck transmitters and 20% message drops — the
// fault mix whose receptions run through the injector on every slot. The
// simulation is rebuilt (off the clock) every 1000 slots so the load stays
// that of a run in progress rather than a finished one.
func BenchmarkStepFaulted(b *testing.B) {
	const n, horizon = 1024, 1000
	pts := workload.UniformDisc(n, workload.SideForDegree(n, 16, 9), 1)
	build := func() *sim.Sim {
		s, err := sim.New(sim.Config{
			Space: metric.NewEuclidean(pts),
			Model: model.NewSINR(1500, 1.5, 1, 3, 0.1),
			P:     1500, Zeta: 3, Noise: 1, Eps: 0.1,
			Seed:       1,
			Primitives: sim.CD | sim.ACK,
			Injector:   New(Spec{Seed: 1, JamFraction: 0.10, DropRate: 0.20}),
		}, func(id int) sim.Protocol { return core.NewLocalBcast(n, int64(id)) })
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Tick() == horizon {
			b.StopTimer()
			s = build()
			b.StartTimer()
		}
		s.Step()
	}
}
