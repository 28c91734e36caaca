package main

import (
	"math"
	"slices"
	"time"
)

// The host this benchmark runs on shares its cores, caches and memory with
// other tenants, so its speed drifts by a quarter or more over minutes, and
// the same simulations run that much slower or faster from one run to the
// next. A calibrator measures that drift while the simulations run: between
// slots it times two fixed reference kernels that are part of the
// benchmark, not of udwn, so no change to udwn can move them. A gather
// sums fixed columns of every row of an 8 MB float64 matrix, the access
// pattern of an interference sum over a power matrix, and a sort orders
// 4096 float64s, branchy compute in cache. Dividing a simulation's time by
// the host's slowdown during it (the kernels' mean time over their nominal
// time) gives its time on an undisturbed host. See README.md for how much
// this steadies the reported times.
type calibrator struct {
	mat    []float64 // calN × calN
	cols   []int
	sorted []float64
	src    []float64
	sink   float64
	last   time.Time // end of the latest chunk
}

const (
	calN     = 1024
	calCols  = 64
	calSortN = 4096
	// calEvery is the stepping time between two chunks; a chunk takes
	// about a millisecond between slots, so the kernels add about 2% to a
	// simulation.
	calEvery = 50 * time.Millisecond
	// The kernels' mean times between slots in runs on the 2-vCPU Xeon
	// virtual machine this benchmark was written on. They only scale the
	// reported times, equally on every commit.
	calGatherNominal = 365 * time.Microsecond
	calSortNominal   = 385 * time.Microsecond
)

func newCalibrator() *calibrator {
	c := &calibrator{
		mat:    make([]float64, calN*calN),
		cols:   make([]int, calCols),
		sorted: make([]float64, calSortN),
		src:    make([]float64, calSortN),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.mat {
		c.mat[i] = float64(next()>>40) * 1e-9
	}
	for i := range c.cols {
		c.cols[i] = int(next() % calN)
	}
	for i := range c.src {
		c.src[i] = float64(next() >> 11)
	}
	return c
}

// calSample is the reference kernels' time over one simulation.
type calSample struct {
	gather, sort time.Duration
	chunks       int
	spent        time.Duration // wall time the chunks took
}

// slowdown is how many times slower than undisturbed the host ran: the
// geometric mean of the two kernels' mean time over their nominal time.
func (s calSample) slowdown() float64 {
	if s.chunks == 0 {
		return 1
	}
	g := float64(s.gather) / float64(s.chunks) / float64(calGatherNominal)
	o := float64(s.sort) / float64(s.chunks) / float64(calSortNominal)
	return math.Sqrt(g * o)
}

// gather sums the fixed columns of every row of the matrix.
func (c *calibrator) gather() {
	for v := 0; v < calN; v++ {
		row := c.mat[v*calN : (v+1)*calN]
		acc := 0.0
		for _, u := range c.cols {
			acc += row[u]
		}
		if acc > row[v] {
			c.sink += acc
		}
	}
}

// chunk times both kernels once into s. The gather runs once untimed
// first, so that the timed one finds the matrix in the caches whatever
// the simulation left there: its time then moves with the host's other
// tenants and not with udwn's own memory footprint.
func (c *calibrator) chunk(s *calSample) {
	t0 := time.Now()
	c.gather()
	t1 := time.Now()
	c.gather()
	t2 := time.Now()
	copy(c.sorted, c.src)
	slices.Sort(c.sorted)
	c.sink += c.sorted[calSortN/2]
	t3 := time.Now()
	s.gather += t2.Sub(t1)
	s.sort += t3.Sub(t2)
	s.spent += t3.Sub(t0)
	s.chunks++
	c.last = t3
}

// due runs a chunk when calEvery has passed since the latest one.
func (c *calibrator) due(now time.Time, s *calSample) {
	if now.Sub(c.last) >= calEvery {
		c.chunk(s)
	}
}
