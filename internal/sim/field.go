package sim

import "fmt"

// This file maintains the Phase 2 interference field incrementally.
//
// The brute driver recomputes every receiver's accumulated interference from
// scratch each slot: zero totalPower, then for each transmitter w in
// ascending id order add Power(w,v)·scale(w) into every same-channel
// receiver v. That accumulation order — ascending transmitters, per
// receiver, restricted to the receiver's channel — is the *canonical sum*.
// The incremental engine never produces anything else: instead of adding and
// subtracting deltas (whose result bits would depend on history), it tracks
// which receivers' accumulators are still the canonical sum of the current
// slot's transmission composition and re-runs the canonical sum for exactly
// the receivers that are not. Equal compositions summed in the canonical
// order give equal bits, so a reused accumulator is byte-identical to what
// the brute driver would have computed — there is no approximation to bound,
// and the periodic epoch rebuild (FieldEpoch) is a defense-in-depth rail,
// not a correctness requirement.
//
// Validity is tracked with slot stamps rather than per-receiver dirty bits
// so that clearing costs nothing: accSlot[v] is the slot whose composition
// totalPower[v] reflects, chanDirty[c] is the last slot at which channel c's
// transmission composition changed, and vDirty[v] is the last slot at which
// receiver v itself was invalidated (it moved, or retuned to another
// channel). totalPower[v] is valid iff accSlot[v] is at least as new as both
// stamps that govern it.
//
// Two operating modes cover the field's two consumer shapes:
//
//   - Broad (CD granted, or a decode rule that reads the field over cached
//     transmitter rows): every acting node or candidate listener reads the
//     field each slot, so fieldAdvance materializes all invalid receivers
//     eagerly — by the canonical sum over the invalid set or, when the
//     composition only *appended* transmitters (each with an id above its
//     channel's previous maximum, no removals, scale or channel changes,
//     moves or retunes), by extending every accumulator with the new
//     transmitters' terms, which is exactly the canonical sum continued.
//   - Lazy (field-oblivious ACK-only runs, and runs without CD over an
//     uncached field): only transmitters or decode checks read the field,
//     so fieldAdvance just maintains the stamps and fieldAt memoizes the
//     canonical sum per queried receiver.
//
// One invariant makes the append path sound: in broad mode every receiver is
// valid at the end of fieldAdvance, so the next slot's append starts from
// accumulators that all equal the canonical sum of the previous composition.

// FieldMode selects the Phase 2 interference-field driver.
type FieldMode int

const (
	// FieldIncremental (the default) maintains the field incrementally with
	// canonical-order re-summation of invalidated receivers; runs are
	// byte-identical to FieldRecompute.
	FieldIncremental FieldMode = iota
	// FieldRecompute is the brute per-slot recompute driver — the reference
	// implementation the differential suites compare against, and the
	// fallback if an incremental-field bug is ever suspected in the wild.
	FieldRecompute
)

// String returns the CLI spelling of the mode.
func (m FieldMode) String() string {
	switch m {
	case FieldIncremental:
		return "incremental"
	case FieldRecompute:
		return "recompute"
	}
	return fmt.Sprintf("FieldMode(%d)", int(m))
}

// ParseFieldMode parses a -field-mode flag value ("" defaults to
// incremental).
func ParseFieldMode(s string) (FieldMode, error) {
	switch s {
	case "", "incremental":
		return FieldIncremental, nil
	case "recompute":
		return FieldRecompute, nil
	}
	return 0, fmt.Errorf("sim: unknown field mode %q (want incremental or recompute)", s)
}

// FieldStats counts the incremental field engine's per-slot outcomes, for
// run diagnostics and the opt-in "sim/field/*" metrics. All zeros under
// FieldRecompute or when the run never builds a field.
type FieldStats struct {
	// ReusedSlots counts slots whose entire field carried over unchanged.
	ReusedSlots int64
	// DeltaSlots counts slots resolved by the append fast path (new
	// transmitters' terms extended onto every accumulator).
	DeltaSlots int64
	// RebuildSlots counts slots that re-summed some invalidated subset of
	// receivers (possibly all of them).
	RebuildSlots int64
	// EpochRebuilds counts forced full rebuilds on the FieldEpoch rail.
	EpochRebuilds int64
	// LazyEvals counts per-receiver canonical re-summations performed on
	// demand by field reads in lazy mode (see the file header for which
	// runs are lazy); broad runs report zero.
	LazyEvals int64
}

// FieldStats returns the cumulative incremental-field work counters.
func (s *Sim) FieldStats() FieldStats { return s.fstat }

// fieldInit allocates the incremental engine's state; called from New only
// when the field is both needed and incremental. A nil accSlot elsewhere
// means "no engine": fieldAdvance is never called and fieldAt reads
// totalPower directly (the brute driver keeps it current).
func (s *Sim) fieldInit() {
	n := s.n
	s.accSlot = make([]int64, n)
	s.vDirty = make([]int64, n)
	s.chanDirty = make([]int64, s.cfg.Channels)
	s.chanLastPrev = make([]int32, s.cfg.Channels)
	if s.cfg.Channels > 1 {
		s.chanPrev = make([]int8, n)
	}
	// The mode follows the readers: CD gives every acting node a reading, a
	// field-reading decode rule one per candidate listener. Broad pays when
	// it streams cached rows, not when it must compute n·|tx| pair powers.
	s.broadField = s.cfg.Primitives.Has(CD) ||
		(!fieldOblivious(s.cfg.Model) && s.field.Row(0) != nil)
	if s.fieldEpoch == 0 {
		s.fieldEpoch = defaultFieldEpoch
	}
}

// defaultFieldEpoch is the forced-rebuild period (Config.FieldEpoch = 0).
const defaultFieldEpoch = 256

// fieldValidAt reports whether totalPower[v] is the canonical sum of the
// current slot's composition on v's channel.
func (s *Sim) fieldValidAt(v int) bool {
	a := s.accSlot[v]
	return a >= s.chanDirty[s.chanBuf[v]] && a >= s.vDirty[v]
}

// fieldAt returns this slot's accumulated interference at receiver v. O(1)
// when v's accumulator is valid — always in recompute mode, in runs without
// an engine, and at the end of every broad-mode fieldAdvance. A stale
// accumulator (lazy mode) is resolved by the canonical sum and memoized for
// the rest of the slot.
func (s *Sim) fieldAt(v int) float64 {
	if s.accSlot == nil || s.fieldValidAt(v) {
		return s.totalPower[v]
	}
	cv := s.chanBuf[v]
	total := 0.0
	for _, w := range s.txBuf {
		if s.chanBuf[w] == cv {
			total += s.field.Power(w, v) * s.scaleBuf[w]
		}
	}
	s.totalPower[v] = total
	s.accSlot[v] = s.fSlot
	s.fstat.LazyEvals++
	return total
}

// fieldAdvance replaces the brute Phase 2 recompute: it diffs this slot's
// transmission composition against the previous slot's, stamps the channels
// and receivers the changes invalidate, and (in broad mode) rematerializes
// exactly the invalid receivers by the canonical sum. Called once per slot,
// after Phase 1 filled txBuf/scaleBuf/chanBuf, with tick not yet advanced.
func (s *Sim) fieldAdvance() {
	S := int64(s.tick) + 1 // stamps must be positive: zero marks "clean"
	s.fSlot = S

	// Whether the composition change is a pure per-channel append — the only
	// shape whose delta application is itself a canonical-sum continuation.
	appendOK := true

	// Receiver-side invalidations first (they consult the *previous* tx
	// composition, which the merge walk below overwrites). A moved node
	// invalidates itself as a receiver, and — if it transmits in either the
	// previous or the current slot — every receiver on the channels it
	// transmitted on, since its distance terms changed.
	if len(s.movedBuf) > 0 {
		appendOK = false
		for _, v := range s.movedBuf {
			s.vDirty[v] = S
			if i, ok := searchInts(s.prevTx, v); ok {
				s.chanDirty[s.prevChan[i]] = S
			}
			if s.isTxBuf[v] {
				s.chanDirty[s.chanBuf[v]] = S
			}
		}
		s.movedBuf = s.movedBuf[:0]
	}
	// Channel retunes invalidate the retuned receiver (its accumulator
	// belongs to the old channel). Only possible in multi-channel runs.
	if s.chanPrev != nil {
		for v := 0; v < s.n; v++ {
			if c := s.chanBuf[v]; c != s.chanPrev[v] {
				s.vDirty[v] = S
				s.chanPrev[v] = c
				appendOK = false
			}
		}
	}

	// Merge-walk the previous and current transmitter lists (both ascending)
	// to stamp the channels whose composition changed and collect the added
	// transmitters for the append path.
	prev, cur := s.prevTx, s.txBuf
	for c := range s.chanLastPrev {
		s.chanLastPrev[c] = -1
	}
	for i := range prev {
		s.chanLastPrev[s.prevChan[i]] = int32(prev[i])
	}
	s.addedBuf = s.addedBuf[:0]
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(prev) && prev[i] < cur[j]):
			// w stopped transmitting: its old channel loses a term.
			s.chanDirty[s.prevChan[i]] = S
			appendOK = false
			i++
		case i >= len(prev) || cur[j] < prev[i]:
			// w started transmitting: its channel gains a term. The append
			// path stays open only if w's id extends the channel's ascending
			// sum past its previous maximum.
			w := cur[j]
			c := s.chanBuf[w]
			s.chanDirty[c] = S
			if int32(w) <= s.chanLastPrev[c] {
				appendOK = false
			}
			s.addedBuf = append(s.addedBuf, w)
			j++
		default:
			// w transmits in both slots; scale or channel changes alter its
			// term (on both channels for a retune).
			w := cur[j]
			if s.scaleBuf[w] != s.prevScale[i] || s.chanBuf[w] != s.prevChan[i] {
				s.chanDirty[s.prevChan[i]] = S
				s.chanDirty[s.chanBuf[w]] = S
				appendOK = false
			}
			i++
			j++
		}
	}

	// Refresh the baseline composition for the next slot's diff.
	s.prevTx = append(s.prevTx[:0], cur...)
	s.prevScale = s.prevScale[:0]
	s.prevChan = s.prevChan[:0]
	for _, w := range cur {
		s.prevScale = append(s.prevScale, s.scaleBuf[w])
		s.prevChan = append(s.prevChan, s.chanBuf[w])
	}

	// Epoch rail: a forced full canonical rebuild every fieldEpoch slots.
	// Structurally the result bits cannot drift, but a cheap periodic
	// re-anchoring makes that a local argument instead of a global one.
	if S%int64(s.fieldEpoch) == 0 {
		s.fieldRebuildAll(S)
		s.fstat.EpochRebuilds++
		return
	}

	if !s.broadField {
		return // sparse readers resolve through fieldAt on demand
	}

	if appendOK {
		if len(s.addedBuf) == 0 {
			// Identical composition, no receiver invalidations: every
			// accumulator carries over bit-for-bit.
			s.fstat.ReusedSlots++
			return
		}
		// Pure append: extend every accumulator with the new transmitters'
		// terms in ascending order — the canonical sum, continued. Valid
		// because broad mode left every receiver valid for the previous
		// composition and each added id exceeds its channel's previous
		// maximum.
		s.fieldSum(s.addedBuf, nil)
		for v := range s.accSlot {
			s.accSlot[v] = S
		}
		s.fstat.DeltaSlots++
		return
	}

	// General case: canonical re-summation of exactly the invalid receivers.
	s.invalBuf = s.invalBuf[:0]
	for v := 0; v < s.n; v++ {
		if !s.fieldValidAt(v) {
			s.totalPower[v] = 0
			s.accSlot[v] = S
			s.invalBuf = append(s.invalBuf, v)
		}
	}
	if len(s.invalBuf) == 0 {
		s.fstat.ReusedSlots++
		return
	}
	s.fieldSum(s.txBuf, s.invalBuf)
	s.fstat.RebuildSlots++
}

// fieldRebuildAll is the brute recompute with validity stamping — the
// canonical sum over every receiver.
func (s *Sim) fieldRebuildAll(S int64) {
	clear(s.totalPower)
	s.fieldSum(s.txBuf, nil)
	for v := range s.accSlot {
		s.accSlot[v] = S
	}
}

// fieldSum adds each transmitter's term Power(w,v)·scale(w), in the order of
// tx, into every same-channel receiver v of recv (nil or all n receivers:
// every receiver). Every branch does the same multiply-add per term, so
// each yields the canonical sum bit for bit; the single-channel all-receiver
// case streams whole cached rows (a transmitter's zero diagonal adds 0).
func (s *Sim) fieldSum(tx, recv []int) {
	tp, ch := s.totalPower, s.chanBuf
	all := recv == nil || len(recv) == s.n
	for _, w := range tx {
		sc, wc := s.scaleBuf[w], ch[w]
		row := s.field.Row(w)
		switch {
		case row != nil && all && s.cfg.Channels == 1:
			for v, p := range row {
				tp[v] += p * sc
			}
		case row != nil && all:
			for v, p := range row {
				if ch[v] == wc {
					tp[v] += p * sc
				}
			}
		case row != nil:
			for _, v := range recv {
				if ch[v] == wc {
					tp[v] += row[v] * sc
				}
			}
		default: // uncached field: every term computed on the fly
			m := len(recv)
			if all {
				m = len(tp)
			}
			for i := 0; i < m; i++ {
				v := i
				if !all {
					v = recv[i]
				}
				if ch[v] == wc {
					tp[v] += s.field.Power(w, v) * sc
				}
			}
		}
	}
}

// fieldNoteMove records that node v moved, for the next fieldAdvance; the
// mark is cheap and unconditional so mutators stay simple.
func (s *Sim) fieldNoteMove(v int) {
	if s.accSlot != nil {
		s.movedBuf = append(s.movedBuf, v)
	}
}

// searchInts is a binary search over an ascending []int returning the index
// and whether the target is present.
func searchInts(a []int, x int) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == x
}
