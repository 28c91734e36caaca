package sim

import "udwn/internal/metrics"

// stepMetrics holds the tick loop's metric handles, resolved once at
// construction so the per-slot cost is plain atomic adds — no map lookups.
// All instruments live under the "sim/" prefix; when several simulations
// share one registry (the experiment grid aggregates every cell into the
// run registry) the get-or-create lookups return the shared instruments and
// the commutative updates merge deterministically.
type stepMetrics struct {
	slots, tx, decodes, mass          *metrics.Counter
	cdBusy, cdIdle, ack, ackMiss, ntd *metrics.Counter
	txPerSlot                         *metrics.Histogram
	contention                        *metrics.Histogram

	// reg backs lazy registration of instruments that must stay absent from
	// snapshots until an event actually occurs (see noteRadiusFallback).
	reg *metrics.Registry
	// radiusFallback counts slot-view radius-cache misses; nil until the
	// first miss registers it.
	radiusFallback *metrics.Counter
	// Spatial-index work counters; nil unless Config.IndexMetrics opted in.
	idxTx, idxCand, idxCount, idxNbr *metrics.Counter
	// Incremental-field and quiescence-wheel work counters; nil unless
	// Config.IndexMetrics opted in.
	fldReused, fldDelta, fldRebuild, fldEpoch, fldLazy *metrics.Counter
	whlWindows, whlSkipped                             *metrics.Counter
}

// Contention histogram bucket bounds. Declaration-fixed (see the metrics
// package determinism contract): txPerSlotBounds spans one transmitter to a
// dense collision storm; contentionBounds brackets the Try&Adjust
// equilibrium band, which the paper drives to a constant (Prop. 3.1) — most
// mass should land in the low single-digit buckets once converged.
var (
	txPerSlotBounds  = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	contentionBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}
)

func newStepMetrics(r *metrics.Registry, indexMetrics bool) *stepMetrics {
	m := &stepMetrics{
		slots:      r.Counter("sim/slots"),
		tx:         r.Counter("sim/tx"),
		decodes:    r.Counter("sim/decodes"),
		mass:       r.Counter("sim/mass_deliveries"),
		cdBusy:     r.Counter("sim/cd_busy"),
		cdIdle:     r.Counter("sim/cd_idle"),
		ack:        r.Counter("sim/ack"),
		ackMiss:    r.Counter("sim/ack_miss"),
		ntd:        r.Counter("sim/ntd"),
		txPerSlot:  r.Histogram("sim/tx_per_slot", txPerSlotBounds...),
		contention: r.Histogram("sim/contention", contentionBounds...),
		reg:        r,
	}
	if indexMetrics {
		m.idxTx = r.Counter("sim/index/tx_queries")
		m.idxCand = r.Counter("sim/index/candidates")
		m.idxCount = r.Counter("sim/index/count_queries")
		m.idxNbr = r.Counter("sim/index/neighbor_queries")
		m.fldReused = r.Counter("sim/field/reused_slots")
		m.fldDelta = r.Counter("sim/field/delta_slots")
		m.fldRebuild = r.Counter("sim/field/rebuild_slots")
		m.fldEpoch = r.Counter("sim/field/epoch_rebuilds")
		m.fldLazy = r.Counter("sim/field/lazy_evals")
		m.whlWindows = r.Counter("sim/wheel/windows")
		m.whlSkipped = r.Counter("sim/wheel/skipped_slots")
	}
	return m
}

// flushIndexStats exports the spatial-index counter deltas accumulated since
// the last flush; no-op unless Config.IndexMetrics registered the handles.
func (s *Sim) flushIndexStats() {
	m := s.met
	if m == nil || m.idxTx == nil {
		return
	}
	cur, prev := s.idx, s.idxFlushed
	m.idxTx.Add(cur.TxQueries - prev.TxQueries)
	m.idxCand.Add(cur.Candidates - prev.Candidates)
	m.idxCount.Add(cur.CountQueries - prev.CountQueries)
	m.idxNbr.Add(cur.NeighborQueries - prev.NeighborQueries)
	s.idxFlushed = cur
}

// flushFieldStats exports the incremental-field and quiescence-wheel counter
// deltas accumulated since the last flush; no-op unless Config.IndexMetrics
// registered the handles.
func (s *Sim) flushFieldStats() {
	m := s.met
	if m == nil || m.fldReused == nil {
		return
	}
	f, fp := s.fstat, s.fstatFlushed
	m.fldReused.Add(f.ReusedSlots - fp.ReusedSlots)
	m.fldDelta.Add(f.DeltaSlots - fp.DeltaSlots)
	m.fldRebuild.Add(f.RebuildSlots - fp.RebuildSlots)
	m.fldEpoch.Add(f.EpochRebuilds - fp.EpochRebuilds)
	m.fldLazy.Add(f.LazyEvals - fp.LazyEvals)
	s.fstatFlushed = f
	w, wp := s.wstat, s.wstatFlushed
	m.whlWindows.Add(w.Windows - wp.Windows)
	m.whlSkipped.Add(w.SkippedSlots - wp.SkippedSlots)
	s.wstatFlushed = w
}

// probMass sums the current transmission probabilities of alive protocols
// implementing ProbReporter — the global probability mass whose vicinity
// restriction is the paper's contention P^ρ_t(v). O(n) over the reporters
// resolved at construction and revival, in ascending node order; only run on
// instrumented slots.
func (s *Sim) probMass() float64 {
	total := 0.0
	for v, pr := range s.reporters {
		if pr != nil && s.alive[v] {
			total += pr.TransmitProb()
		}
	}
	return total
}
