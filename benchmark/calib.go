package main

import (
	"math"
	"sort"
	"time"
)

// calNominalMs is the calibration spin's uncontended duration (its p10 in a
// quiet period) on the reference sandbox. It is frozen so that calibrated
// values read as milliseconds on a quiet reference machine; changing it
// rescales every calibrated metric and therefore needs a fresh baseline.
const calNominalMs = 0.86

// spinIters fixes the work of one calibration spin.
const spinIters = 300000

// calibrator is the fixed spin the harness runs between every two timed
// operations. On the shared 2-vCPU sandbox the noise is a co-tenant slowing
// the core for seconds to minutes at a time, not descheduling (process CPU
// time tracks wall time, steal is ~0); a spin adjacent to an operation sees
// the same machine state, so it works as a thermometer of it. The kernel is
// float32 pair-force shaped (differences, multiply-add, a data-dependent read
// over a 32 KiB table): of the kernels tried (exp-heavy float64, integer
// xorshift+table, this one) it tracked the steps best and has the widest
// swing between the quiet and the contended state (x1.4-1.7), which makes the
// state easy to read. It allocates nothing and must never change, or
// calNominalMs and the workloads' elasticities stop describing it.
type calibrator struct {
	tab  [8192]float32
	sink float32

	// helpers spin on the other cores at the same time (see newCalibrator).
	helpers []*spinHelper
}

// spinHelper is a goroutine that runs one spin each time it is told to, so a
// multi-core reading costs no goroutine launch (and no allocation) per spin.
type spinHelper struct {
	cal   *calibrator
	start chan struct{}
	done  chan time.Duration
}

// newCalibrator returns a calibrator reading cores cores at once. The
// co-tenant slows each vCPU independently (two spins run side by side differ
// by x2 as often as not), so a workload that computes on two cores is
// bracketed by spins on two cores, their mean taken as the machine state; a
// single-threaded workload is bracketed by a spin on its own thread alone.
// close must be called when cores > 1.
func newCalibrator(cores int) *calibrator {
	c := &calibrator{}
	c.fill()
	for i := 1; i < cores; i++ {
		h := &spinHelper{cal: &calibrator{}, start: make(chan struct{}), done: make(chan time.Duration)}
		h.cal.fill()
		c.helpers = append(c.helpers, h)
		go func() {
			for range h.start {
				h.done <- h.cal.spinOne()
			}
			close(h.done)
		}()
	}
	return c
}

func (c *calibrator) fill() {
	for i := range c.tab {
		c.tab[i] = float32(i%64) * 0.37
	}
}

// close stops the helper goroutines and waits for them.
func (c *calibrator) close() {
	for _, h := range c.helpers {
		close(h.start)
		<-h.done
	}
	c.helpers = nil
}

// spin runs the fixed kernel once on every core the calibrator reads and
// returns the mean duration.
func (c *calibrator) spin() time.Duration {
	for _, h := range c.helpers {
		h.start <- struct{}{}
	}
	total := c.spinOne()
	for _, h := range c.helpers {
		total += <-h.done
	}
	return total / time.Duration(1+len(c.helpers))
}

// spinOne runs the fixed kernel once and returns how long it took.
func (c *calibrator) spinOne() time.Duration {
	t0 := time.Now()
	var fx, fy, fz float32
	tab := &c.tab
	for i := 0; i < spinIters; i++ {
		dx := tab[i&8191] - tab[(i*7)&8191]
		dy := tab[(i*3)&8191] - tab[(i*5)&8191]
		dz := tab[(i*11)&8191] - tab[(i*13)&8191]
		r2 := dx*dx + dy*dy + dz*dz + 1
		g := tab[int(r2)&8191]*r2 + 0.5
		fx += g * dx
		fy += g * dy
		fz += g * dz
	}
	c.sink += fx + fy + fz
	return time.Since(t0)
}

// sample is one timed operation bracketed by the spins run just before and
// just after it.
type sample struct {
	t, before, after time.Duration
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// calFactor converts a raw duration measured between two spins into
// calibrated time: (nominal spin / mean bracketing spin)^elasticity. The
// contended machine does not slow all code alike — the spin slows by up to
// x1.7 where a step of this program slows by x1.2-1.6 — so each workload
// carries its measured elasticity: the slope of log(operation time) against
// log(spin time) over runs that saw both machine states (workloads.go).
// With elasticity 1 this is plain "time in spins"; on these workloads that
// over-corrects and reads 14-19 % lower in a contended hour than in a quiet
// one, which the exponent removes.
func calFactor(before, after time.Duration, elasticity float64) float64 {
	return math.Pow(calNominalMs/((ms(before)+ms(after))/2), elasticity)
}

// calMs is the operation's calibrated time in ms.
func (s sample) calMs(elasticity float64) float64 {
	return ms(s.t) * calFactor(s.before, s.after, elasticity)
}

// blockMedian groups v into blocks of b consecutive values (a trailing
// partial block is dropped), takes each block's mean and returns the median
// over blocks with the block count. A block holds the deterministic mix of
// cheap and expensive steps (j-set reuse and rebuild), so its mean is the
// per-step cost; the median over blocks discards the blocks a noise burst
// edge fell into.
func blockMedian(v []float64, b int) (float64, int) {
	if b < 1 {
		b = 1
	}
	var means []float64
	for i := 0; i+b <= len(v); i += b {
		sum := 0.0
		for _, x := range v[i : i+b] {
			sum += x
		}
		means = append(means, sum/float64(b))
	}
	return median(means), len(means)
}

// percentile returns the p-quantile (0 <= p <= 1) of v by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	lo := int(math.Floor(k))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(k-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method) — the figure the
// acceptance driver computes over ten runs.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(m)
}
