package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples must lie beyond a reported tail
// percentile, so that one outlier cannot set it.
const tailSamples = 10

// tail returns the highest percentile of xs that has at least tailSamples
// samples above it — the (tailSamples+1)-th largest sample — and names it
// ("p86.1 of 72"). When that percentile would not lie above the median
// (fewer than 2·tailSamples+1 samples) it returns the maximum instead,
// named "max of n".
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "no samples"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= 2*tailSamples {
		return s[len(s)-1], fmt.Sprintf("max of %d", len(s))
	}
	k := len(s) - 1 - tailSamples
	return s[k], fmt.Sprintf("p%.1f of %d", 100*float64(k+1)/float64(len(s)), len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveHeap runs a full garbage collection and returns the heap bytes it
// found reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
