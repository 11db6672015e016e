// Package analysis provides the observables used to interpret the paper's
// simulations: radial distribution functions (the structural fingerprint of
// molten vs crystalline NaCl that the solid–liquid studies of §1 and [14]
// rely on), mean-squared displacement, block averaging for error bars, and
// the temperature-fluctuation scaling analysis behind Figure 2 — the paper's
// demonstration that σ_T shrinks as the particle count grows.
package analysis

import (
	"fmt"
	"math"

	"mdm/internal/vec"
)

// RDF accumulates a radial distribution function histogram for a cubic
// periodic box.
type RDF struct {
	L      float64
	RMax   float64
	Bins   []float64 // pair counts per bin
	frames int
	nA, nB int // particles of each species counted per frame
}

// NewRDF creates a histogram with the given number of bins out to rmax,
// which must not exceed half the box.
func NewRDF(l, rmax float64, bins int) (*RDF, error) {
	if l <= 0 || rmax <= 0 || rmax > l/2 {
		return nil, fmt.Errorf("analysis: rmax %g must be in (0, L/2 = %g]", rmax, l/2)
	}
	if bins < 1 {
		return nil, fmt.Errorf("analysis: bins %d must be positive", bins)
	}
	return &RDF{L: l, RMax: rmax, Bins: make([]float64, bins)}, nil
}

// AddFrame accumulates all A–B pairs of one configuration. posA and posB may
// be the same slice (the all-pairs or same-species RDF); the self pair is
// skipped in that case.
func (r *RDF) AddFrame(posA, posB []vec.V) {
	if len(posA) == 0 || len(posB) == 0 {
		return
	}
	same := &posA[0] == &posB[0] && len(posA) == len(posB)
	dr := r.RMax / float64(len(r.Bins))
	for i := range posA {
		for j := range posB {
			if same && j <= i {
				continue
			}
			d := vec.DistPeriodic(posA[i], posB[j], r.L)
			if d >= r.RMax {
				continue
			}
			b := int(d / dr)
			if b >= len(r.Bins) {
				b = len(r.Bins) - 1
			}
			if same {
				r.Bins[b] += 2 // count both (i,j) and (j,i)
			} else {
				r.Bins[b]++
			}
		}
	}
	r.frames++
	r.nA, r.nB = len(posA), len(posB)
}

// Curve returns the bin centers and the normalized g(r): the pair density
// relative to the ideal-gas expectation n_B/V per A particle.
func (r *RDF) Curve() (rs, g []float64) {
	bins := len(r.Bins)
	rs = make([]float64, bins)
	g = make([]float64, bins)
	if r.frames == 0 || r.nA == 0 || r.nB == 0 {
		return rs, g
	}
	dr := r.RMax / float64(bins)
	vol := r.L * r.L * r.L
	rhoB := float64(r.nB) / vol
	for b := 0; b < bins; b++ {
		rs[b] = (float64(b) + 0.5) * dr
		shell := 4 * math.Pi * rs[b] * rs[b] * dr
		norm := float64(r.frames) * float64(r.nA) * rhoB * shell
		if norm > 0 {
			g[b] = r.Bins[b] / norm
		}
	}
	return rs, g
}

// FirstPeak returns the position and height of the first maximum of g(r)
// above the given minimum distance (to skip the trivially empty core).
func FirstPeak(rs, g []float64, rmin float64) (pos, height float64) {
	best := -1
	for i := 1; i+1 < len(g); i++ {
		if rs[i] < rmin {
			continue
		}
		if g[i] >= g[i-1] && g[i] >= g[i+1] && g[i] > height {
			best = i
			height = g[i]
		}
	}
	if best < 0 {
		return 0, 0
	}
	return rs[best], height
}

// MSD tracks mean-squared displacement from a reference configuration using
// unwrapped trajectories: feed it consecutive wrapped configurations and it
// reconstructs the continuous paths via minimum-image increments.
type MSD struct {
	L        float64
	ref      []vec.V // unwrapped reference
	unwrap   []vec.V // current unwrapped positions
	lastWrap []vec.V // last wrapped positions seen
}

// NewMSD starts tracking from the given initial configuration.
func NewMSD(l float64, pos []vec.V) *MSD {
	m := &MSD{
		L:        l,
		ref:      append([]vec.V(nil), pos...),
		unwrap:   append([]vec.V(nil), pos...),
		lastWrap: append([]vec.V(nil), pos...),
	}
	return m
}

// Update advances the unwrapped trajectory with a new wrapped configuration
// and returns the current MSD (Å²). Steps must be small enough that no
// particle moves more than half a box between calls.
func (m *MSD) Update(pos []vec.V) float64 {
	for i := range pos {
		d := pos[i].Sub(m.lastWrap[i]).MinImage(m.L)
		m.unwrap[i] = m.unwrap[i].Add(d)
		m.lastWrap[i] = pos[i]
	}
	sum := 0.0
	for i := range m.unwrap {
		sum += m.unwrap[i].Sub(m.ref[i]).Norm2()
	}
	return sum / float64(len(m.unwrap))
}

// Mean returns the arithmetic mean of data (0 for empty input).
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range data {
		s += v
	}
	return s / float64(len(data))
}

// Std returns the population standard deviation of data.
func Std(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	m := Mean(data)
	s := 0.0
	for _, v := range data {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(data)))
}

// FluctuationPoint is one (N, σ_T/T) sample of the Figure 2 experiment.
type FluctuationPoint struct {
	N       int
	MeanT   float64
	StdT    float64
	RelFluc float64 // StdT / MeanT
}

// FitInverseSqrt fits RelFluc = c · N^p by least squares in log space and
// returns (c, p). The canonical-ensemble expectation for the kinetic
// temperature is p = -1/2 with c ≈ sqrt(2/3) — exactly the trend Figure 2
// demonstrates visually.
func FitInverseSqrt(points []FluctuationPoint) (c, p float64, err error) {
	if len(points) < 2 {
		return 0, 0, fmt.Errorf("analysis: need at least 2 points to fit")
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(points))
	for _, pt := range points {
		if pt.N < 1 || pt.RelFluc <= 0 {
			return 0, 0, fmt.Errorf("analysis: invalid point %+v", pt)
		}
		x := math.Log(float64(pt.N))
		y := math.Log(pt.RelFluc)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0, fmt.Errorf("analysis: degenerate fit (all N equal)")
	}
	p = (n*sxy - sx*sy) / denom
	c = math.Exp((sy - p*sx) / n)
	return c, p, nil
}

// DiffusionCoefficient fits MSD(t) = 6·D·t + c by least squares and returns
// D (units: Å²/<time unit of times>) and the intercept c. In three
// dimensions the Einstein relation gives the self-diffusion coefficient of
// the tracked species — the transport property of molten NaCl that the
// paper-scale simulations measure.
func DiffusionCoefficient(times, msd []float64) (d, intercept float64, err error) {
	if len(times) != len(msd) || len(times) < 2 {
		return 0, 0, fmt.Errorf("analysis: need >=2 matched samples (%d, %d)", len(times), len(msd))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(times))
	for i := range times {
		sx += times[i]
		sy += msd[i]
		sxx += times[i] * times[i]
		sxy += times[i] * msd[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("analysis: degenerate time axis")
	}
	slope := (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope / 6, intercept, nil
}
