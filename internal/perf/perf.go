// Package perf implements the performance-accounting model behind the
// paper's headline results: Table 4 (floating-point operations per step,
// seconds per step, calculation speed and effective speed for the current
// MDM, a conventional computer, and the future MDM) and the peaks and
// efficiencies of Table 5's two machine generations. cmd/mdmpaper sets it
// beside the paper's printed values.
//
// Flop counting follows §2 exactly (59 operations per real-space pair, 64
// per particle-wave pair; N_int, N_int_g and N_wv from eqs. 5, 6 and 13).
// Step times come from a component model:
//
//	t_step = max(t_wine, t_mdg) + t_host
//	t_wine = F_wn /(P_wine·η_wine) + t_comm_wine
//	t_mdg  = F_re /(P_mdg ·η_mdg ) + t_comm_mdg
//
// where the communication terms count position/structure-factor/force bytes
// over the PCI bridges and Myrinet of HostModel (host.go), and η is the
// pipeline duty-cycle. η for the current machine is calibrated so the
// current-MDM column reproduces the measured 43.8 s/step; the future machine
// then uses the paper's own 50% efficiency estimate (§6.1, Table 5). The
// paper's "effective speed" normalization — divide the cheapest conventional
// operation count by the same wall-clock time — is reproduced verbatim.
package perf

import (
	"fmt"
	"math"

	"mdm/internal/ewald"
)

// Bytes per particle for positions/charges sent to the boards, and per force
// vector returned (3 × float64), matching the board memory layouts.
const (
	posBytes   = 16
	forceBytes = 24
	scBytes    = 16 // S and C (or a_n·S, a_n·C) per wave
)

// HostFlopsPerParticle is the host-side work per particle per step
// (integration, thermostat, bookkeeping) in the flop model.
const HostFlopsPerParticle = 60

// MachineModel describes one machine generation for the timing model.
type MachineModel struct {
	Name string

	// Real-space engine.
	MDGPeak  float64 // flop/s
	MDGEff   float64 // pipeline duty-cycle η
	RealGeom float64 // ewald.GeomCell27 for MDGRAPE-2, GeomHalfSphere for CPUs

	// Wavenumber engine.
	WinePeak float64
	WineEff  float64

	// Interconnect and host.
	Host HostModel

	// Conventional marks the general-purpose column: one engine does both
	// halves (speeds equal), no board communication.
	Conventional bool
}

// Calibration constants: the current-generation pipeline duty cycles that
// reproduce the measured 43.8 s/step of §5 through this package's component
// model. They are close to — but not identical with — the 26%/29%
// "efficiency" of Table 5, whose accounting the paper does not spell out
// (see EXPERIMENTS.md).
const (
	CalibratedWineEff = 0.392
	CalibratedMDGEff  = 0.40
)

// CurrentMDM is the July-2000 machine: 45 Tflops WINE-2 + 1 Tflops
// MDGRAPE-2 on 32-bit PCI and first-generation Myrinet.
func CurrentMDM() MachineModel {
	return MachineModel{
		Name:     "MDM current",
		MDGPeak:  1.024e12, // 64 chips × 16 Gflops
		MDGEff:   CalibratedMDGEff,
		RealGeom: ewald.GeomCell27,
		WinePeak: 45e12,
		WineEff:  CalibratedWineEff,
		Host:     CurrentHost(),
	}
}

// FutureMDM is the end-of-2000 machine of §6.1: 1,536 MDGRAPE-2 chips
// (25 Tflops), 2,688 WINE-2 chips (54 Tflops), 64-bit PCI, new Myrinet, and
// the paper's 50% efficiency estimate.
func FutureMDM() MachineModel {
	return MachineModel{
		Name:     "MDM future",
		MDGPeak:  24.6e12, // 1,536 chips × 16 Gflops
		MDGEff:   0.5,
		RealGeom: ewald.GeomCell27,
		WinePeak: 54e12,
		WineEff:  0.5,
		Host:     FutureHost(),
	}
}

// Conventional is the general-purpose column: a machine that executes the
// half-sphere operation count at the given sustained speed for both halves.
func Conventional(speed float64) MachineModel {
	return MachineModel{
		Name:         "Conventional",
		MDGPeak:      speed,
		MDGEff:       1,
		RealGeom:     ewald.GeomHalfSphere,
		WinePeak:     speed,
		WineEff:      1,
		Host:         CurrentHost(),
		Conventional: true,
	}
}

// CostModel returns the ewald cost model implied by this machine (for the α
// optimizer).
func (m MachineModel) CostModel() ewald.CostModel {
	return ewald.CostModel{
		RealGeom:  m.RealGeom,
		SpeedReal: m.MDGPeak * m.MDGEff,
		SpeedWave: m.WinePeak * m.WineEff,
	}
}

// OptimalParams returns the Ewald discretization this machine would choose
// for an N-particle box of side l — the α of its Table 4 column.
func (m MachineModel) OptimalParams(n int, l float64) ewald.Params {
	density := float64(n) / (l * l * l)
	// The α optimum depends only on the speed *ratio*, which for the paper's
	// choice was the peak ratio (their 85.0 follows from 45:1, not from the
	// measured efficiencies).
	cm := ewald.CostModel{RealGeom: m.RealGeom, SpeedReal: m.MDGPeak, SpeedWave: m.WinePeak}
	return cm.BalancedParams(l, density)
}

// Breakdown is the per-component step time.
type Breakdown struct {
	TWineCompute float64
	TWineComm    float64
	TMDGCompute  float64
	TMDGComm     float64
	THost        float64
	Total        float64
}

// StepFlops returns the §2 operation counts for this machine's geometry.
func (m MachineModel) StepFlops(p ewald.Params, n int, density float64) (re, wn float64) {
	cm := ewald.CostModel{RealGeom: m.RealGeom, SpeedReal: 1, SpeedWave: 1}
	return cm.StepFlops(p, n, density)
}

// StepTime evaluates the component timing model for one MD step.
func (m MachineModel) StepTime(p ewald.Params, n int, density float64) Breakdown {
	re, wn := m.StepFlops(p, n, density)
	var b Breakdown
	b.TWineCompute = wn / (m.WinePeak * m.WineEff)
	b.TMDGCompute = re / (m.MDGPeak * m.MDGEff)
	if !m.Conventional {
		nw := p.NWv()
		nf := float64(n)
		// WINE-2 traffic per step over the cluster bridges: positions out,
		// structure factors back and forth, forces back. Boards hold
		// particle blocks; each bridge carries its share.
		wineLinks := float64(m.Host.WineLinks())
		boardsPerBridge := 7.0
		wineBytes := nf*posBytes/wineLinks + // positions, partitioned
			2*2*nw*scBytes*boardsPerBridge + // S±C per board, both directions
			nf*forceBytes/wineLinks // forces, partitioned
		b.TWineComm = m.Host.PCITime(int64(wineBytes))

		// MDGRAPE-2 traffic: each cluster's two boards receive the j-set of
		// its domain (own + halo ≈ 1.5× share) and return forces.
		mdgLinks := float64(m.Host.MDGLinks())
		jBytes := 2 * 1.5 * nf / mdgLinks * posBytes
		mdgBytes := jBytes + nf*forceBytes/mdgLinks
		b.TMDGComm = m.Host.PCITime(int64(mdgBytes))
	}
	// Host integration + inter-node halo/gather traffic.
	b.THost = m.Host.HostTime(HostFlopsPerParticle*float64(n)) +
		m.Host.NetTime(int64(float64(n)*posBytes/float64(m.Host.Nodes)))
	b.Total = math.Max(b.TWineCompute+b.TWineComm, b.TMDGCompute+b.TMDGComm) + b.THost
	return b
}

// Column is one column of Table 4.
type Column struct {
	Name       string
	N          int
	Alpha      float64
	RCut       float64
	LKCut      float64
	NInt       float64 // half-sphere count (conventional only; 0 otherwise)
	NIntG      float64 // 27-cell count (MDM columns; 0 otherwise)
	NWv        float64
	FlopsReal  float64
	FlopsWave  float64
	FlopsTotal float64
	SecPerStep float64 // component-model prediction
	CalcTflops float64 // FlopsTotal / SecPerStep
	EffTflops  float64 // conventional-minimum flops / SecPerStep
}

// PaperN and PaperL are the §5 run size: 9,410,548 NaCl ion pairs in an
// 850 Å box.
const (
	PaperN = 18821096
	PaperL = 850.0
)

// Table4 generates the three columns of Table 4 for an N-particle box of
// side l. Each machine chooses its own optimal α; the conventional column's
// step time is, by the paper's construction, the measured MDM step time
// (same wall-clock, minimal operation count), and the effective speed of
// every column is the conventional operation count divided by that column's
// step time.
func Table4(n int, l float64) ([]Column, error) {
	if n < 1 || l <= 0 {
		return nil, fmt.Errorf("perf: invalid system n=%d l=%g", n, l)
	}
	density := float64(n) / (l * l * l)

	cur := CurrentMDM()
	fut := FutureMDM()

	curP := cur.OptimalParams(n, l)
	futP := fut.OptimalParams(n, l)
	convP := ewald.ConventionalCost().BalancedParams(l, density)

	// Minimal conventional operation count: the effective-speed yardstick.
	convRe, convWn := Conventional(1).StepFlops(convP, n, density)
	convTotal := convRe + convWn

	curT := cur.StepTime(curP, n, density).Total
	futT := fut.StepTime(futP, n, density).Total

	mk := func(name string, m MachineModel, p ewald.Params, t float64) Column {
		re, wn := m.StepFlops(p, n, density)
		col := Column{
			Name:       name,
			N:          n,
			Alpha:      p.Alpha,
			RCut:       p.RCut,
			LKCut:      p.LKCut,
			NWv:        p.NWv(),
			FlopsReal:  re,
			FlopsWave:  wn,
			FlopsTotal: re + wn,
			SecPerStep: t,
			CalcTflops: (re + wn) / t / 1e12,
			EffTflops:  convTotal / t / 1e12,
		}
		if m.RealGeom == ewald.GeomCell27 {
			col.NIntG = p.NIntG(density)
		} else {
			col.NInt = p.NInt(density)
		}
		return col
	}

	cols := []Column{
		mk("MDM current", cur, curP, curT),
		// The conventional machine is *defined* to take the same time as the
		// measured MDM run (Table 4's construction).
		mk("Conventional", Conventional(convTotal/curT), convP, curT),
		mk("MDM future", fut, futP, futT),
	}
	return cols, nil
}
