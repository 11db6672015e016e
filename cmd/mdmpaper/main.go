// Command mdmpaper checks the reproduction against the paper. Every claim the
// paper makes that this repository regenerates is one row: Table 1's
// inventory, Table 4 (the 43.8 s/step and 1.34 Tflops headline), Table 5,
// the §3.1 / §6.1 / §6.2 model claims, the §3.4.4 / §3.5.4 error budgets of
// the assembled machine, the §5 energy drift and Figure 2. A row prints the
// section, the quantity, the paper's value, ours, the tolerance and a
// verdict:
//
//	pass / fail  ours against the paper's value within the tolerance
//	deviation    a gap no tolerance gates; the EXPERIMENTS.md section that
//	             documents it follows the verdict
//	info         a figure the paper prints no value for: the Table 1 parts,
//	             the step-time model's breakdown, Figure 2's points
//
// It takes no arguments (exit 2 on any) and exits 1 when a row fails. The
// simulations behind the §3.4.4 / §3.5.4, §5 and Figure 2 rows run on the
// MDM backend and take a few seconds.
//
//	go run ./cmd/mdmpaper
package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"mdm"
	"mdm/internal/analysis"
	"mdm/internal/core"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/perf"
	"mdm/internal/wine2"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit status: 2 for any argument, 1 when
// a measurement errs or a row fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintf(stderr, "usage: mdmpaper (it takes no arguments; got %q)\n", args)
		return 2
	}
	rows, err := claims()
	if err != nil {
		fmt.Fprintln(stderr, "mdmpaper:", err)
		return 1
	}
	return report(stdout, rows)
}

// claim is one row of the report. paper is the paper's figure (none when it
// prints none); says, when set, is printed in its place: a claim the paper
// makes in words, or a figure no tolerance reads. A row without a tol is a
// deviation when doc names the EXPERIMENTS.md section documenting its gap,
// info otherwise.
type claim struct {
	section, quantity string
	paper             float64
	says              string
	ours              float64
	tol               tol
	doc               string
}

// tol is a row's gate: ok judges ours against the paper's figure.
type tol struct {
	text string
	ok   func(ours, paper float64) bool
}

func rel(f float64) tol {
	return tol{"±" + num(100*f) + " %", func(v, p float64) bool { return math.Abs(v-p) <= f*math.Abs(p) }}
}

func plusMinus(d float64) tol {
	return tol{"±" + num(d), func(v, p float64) bool { return math.Abs(v-p) <= d }}
}

func exact() tol { return tol{"exact", func(v, p float64) bool { return v == p }} }

func in(lo, hi float64) tol {
	text := "[" + num(lo) + ", " + num(hi) + "]"
	switch {
	case math.IsInf(lo, -1):
		text = "≤ " + num(hi)
	case math.IsInf(hi, 1):
		text = "≥ " + num(lo)
	}
	return tol{text, func(v, _ float64) bool { return lo <= v && v <= hi }}
}

func below(hi float64) tol { return tol{"< " + num(hi), func(v, _ float64) bool { return v < hi }} }

// upTo excludes zero: a stage error of exactly 0 means the oracle judged the
// machine against itself.
func upTo(b float64) tol {
	return tol{"(0, " + num(b) + "]", func(v, _ float64) bool { return v > 0 && v <= b }}
}

func (c claim) verdict() string {
	switch {
	case c.tol.ok == nil && c.doc != "":
		return "deviation"
	case c.tol.ok == nil:
		return "info"
	case c.tol.ok(c.ours, c.paper):
		return "pass"
	}
	return "fail"
}

// num prints a figure in three significant digits, an integer whole.
func num(v float64) string {
	switch {
	case math.IsNaN(v):
		return "—"
	case v == math.Trunc(v) && math.Abs(v) < 1e4:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// report prints the rows and returns the exit status: 1 if any row fails.
func report(w io.Writer, rows []claim) int {
	const format = "%-8s %-44s %-24s %-10s %-12s %s\n"
	fmt.Fprintf(w, format, "section", "quantity", "paper", "ours", "tolerance", "verdict")
	status := 0
	for _, c := range rows {
		paper, gate, verdict := num(c.paper), c.tol.text, c.verdict()
		if c.says != "" {
			paper = c.says
		}
		if gate == "" {
			gate = "—"
		}
		switch verdict {
		case "fail":
			status = 1
		case "deviation":
			verdict += " (EXPERIMENTS.md: " + c.doc + ")"
		}
		fmt.Fprintf(w, format, c.section, c.quantity, paper, num(c.ours), gate, verdict)
	}
	return status
}

// none is the paper's value of a row it prints none for.
var none = math.NaN()

// claims regenerates every row: the performance model at the paper's N, the
// machine's stage errors, and the three simulation protocols.
func claims() ([]claim, error) {
	cols, err := perf.Table4(perf.PaperN, perf.PaperL)
	if err != nil {
		return nil, err
	}
	cur, conv, fut := cols[0], cols[1], cols[2]
	curM, futM := perf.CurrentMDM(), perf.FutureMDM()
	density := float64(perf.PaperN) / (perf.PaperL * perf.PaperL * perf.PaperL)
	at := func(m perf.MachineModel, n int) perf.Breakdown { // the model at another N, same density
		l := math.Cbrt(float64(n) / density)
		return m.StepTime(m.OptimalParams(n, l), n, density)
	}
	curB, futB := at(curM, perf.PaperN), at(futM, perf.PaperN)
	compute := func(b perf.Breakdown) float64 { return b.TWineCompute + b.TMDGCompute }
	overhead := func(b perf.Breakdown) float64 { return b.THost + b.TWineComm + b.TMDGComm }
	b1, b8 := at(curM, 1_000_000), at(curM, 8_000_000)
	million := at(futM, 1_000_000).Total

	hostM, wc, mc := perf.CurrentHost(), wine2.CurrentConfig(), mdgrape2.CurrentConfig()
	wf, mf := wine2.FutureConfig(), mdgrape2.FutureConfig()

	stages, err := stageErrors()
	if err != nil {
		return nil, err
	}
	fig2, err := figure2()
	if err != nil {
		return nil, err
	}
	exponent := math.NaN()
	if _, p, err := analysis.FitInverseSqrt(fig2); err == nil {
		exponent = p
	}
	shrink := 0.0 // the largest σ_T/⟨T⟩ ratio from one N to the next
	for i := 1; i < len(fig2); i++ {
		shrink = max(shrink, fig2[i].RelFluc/fig2[i-1].RelFluc)
	}
	// Figure 2a: too short an NVT stage from the crystal, and the melt keeps
	// turning kinetic into potential energy through the NVE segment.
	temps2a, _, err := simulate(mdm.Config{Cells: 2, Seed: 6}, 15, 120)
	if err != nil {
		return nil, err
	}
	_, drift, err := simulate(mdm.Config{Cells: 2}, 100, 100)
	if err != nil {
		return nil, err
	}
	// The drift where the cutoff walks do their work: 216 ions with and
	// without a Verlet skin, and the benchmark's 512, whose cells the slab
	// index cuts. Each band is ±10 % of the value recorded since the pair set
	// became the energy-shifted r_cut sphere (EXPERIMENTS.md "One r_cut
	// sphere"), so a sweep, walk or potential change that spends the margin
	// fails here rather than only against the 5·10⁻⁵ gate.
	drifts := []struct {
		cfg      mdm.Config
		what     string
		recorded float64
	}{
		{mdm.Config{Cells: 3}, "216 ions", 1.31e-5},
		{mdm.Config{Cells: 3, Skin: 0.5}, "216 ions, skin 0.5 Å", 1.30e-5},
		{mdm.Config{Cells: 4}, "512 ions", 8.42e-6},
	}
	var driftRows []claim
	for _, d := range drifts {
		_, dr, err := simulate(d.cfg, 100, 200)
		if err != nil {
			return nil, err
		}
		driftRows = append(driftRows, claim{section: "§5", quantity: "NVE energy drift, " + d.what + ", 100 + 200 steps",
			paper: 5e-7, ours: dr, tol: in(0.9*d.recorded, 1.1*d.recorded)})
	}

	const inconsistency = "Internal inconsistency in the paper's Table 4/5"
	var rows []claim
	for _, c := range perf.Inventory() {
		rows = append(rows, claim{section: "Table 1", quantity: c.Component, says: c.Product, ours: none})
	}
	rows = append(rows, []claim{
		{section: "Table 1", quantity: "WINE-2 chips: host links × boards × chips", paper: 2240,
			ours: float64(hostM.WineLinks() * wc.BoardsPerCluster * wc.ChipsPerBoard), tol: exact()},
		{section: "Table 1", quantity: "MDGRAPE-2 chips: host links × boards × chips", paper: 64,
			ours: float64(hostM.MDGLinks() * mc.BoardsPerCluster * mc.ChipsPerBoard), tol: exact()},

		{section: "Table 4", quantity: "current α", paper: 85.0, ours: cur.Alpha, tol: rel(0.05)},
		{section: "Table 4", quantity: "current r_cut (Å)", paper: 26.4, ours: cur.RCut, tol: rel(0.06)},
		{section: "Table 4", quantity: "current L·k_cut", paper: 63.9, ours: cur.LKCut, tol: rel(0.06)},
		{section: "Table 4", quantity: "current N_int_g", paper: 1.52e4, ours: cur.NIntG, tol: rel(0.15)},
		{section: "Table 4", quantity: "current N_wv", paper: 5.46e5, ours: cur.NWv, tol: rel(0.15)},
		{section: "Table 4", quantity: "current F_re (flops/step)", paper: 1.69e13, ours: cur.FlopsReal, tol: rel(0.15)},
		{section: "Table 4", quantity: "current F_wn (flops/step)", paper: 6.58e14, ours: cur.FlopsWave, tol: rel(0.15)},
		{section: "Table 4", quantity: "current sec/step", paper: 43.8, ours: cur.SecPerStep, tol: rel(0.10)},
		{section: "Table 4", quantity: "current calculation speed (Tflops)", paper: 15.4, ours: cur.CalcTflops, tol: rel(0.20)},
		{section: "Table 4", quantity: "current effective speed (Tflops)", paper: 1.34, ours: cur.EffTflops, tol: plusMinus(0.2)},
		{section: "Table 4", quantity: "conventional α", paper: 30.1, ours: conv.Alpha, tol: rel(0.05)},
		{section: "Table 4", quantity: "conventional r_cut (Å)", paper: 74.4, ours: conv.RCut, tol: rel(0.06)},
		{section: "Table 4", quantity: "conventional L·k_cut", paper: 22.7, ours: conv.LKCut, tol: rel(0.06)},
		{section: "Table 4", quantity: "conventional N_int", paper: 2.65e4, ours: conv.NInt, tol: rel(0.10)},
		{section: "Table 4", quantity: "conventional N_wv", paper: 2.44e4, ours: conv.NWv, tol: rel(0.15)},
		{section: "Table 4", quantity: "conventional F_re (flops/step)", paper: 2.94e13, ours: conv.FlopsReal, tol: rel(0.15)},
		{section: "Table 4", quantity: "conventional F_wn (flops/step)", paper: 2.94e13, ours: conv.FlopsWave, tol: rel(0.15)},
		// The conventional column takes the current column's step time by
		// construction, so its speeds are the current effective speed.
		{section: "Table 4", quantity: "conventional sec/step", paper: 43.8, ours: conv.SecPerStep, tol: rel(0.10)},
		{section: "Table 4", quantity: "conventional calculation speed (Tflops)", paper: 1.34, ours: conv.CalcTflops, tol: plusMinus(0.2)},
		{section: "Table 4", quantity: "conventional effective speed (Tflops)", paper: 1.34, ours: conv.EffTflops, tol: plusMinus(0.2)},
		{section: "Table 4", quantity: "future α", paper: 50.3, ours: fut.Alpha, tol: rel(0.05)},
		{section: "Table 4", quantity: "future r_cut (Å)", paper: 44.5, ours: fut.RCut, tol: rel(0.06)},
		{section: "Table 4", quantity: "future L·k_cut", paper: 37.9, ours: fut.LKCut, tol: rel(0.06)},
		{section: "Table 4", quantity: "future N_int_g", paper: 7.32e4, ours: fut.NIntG, tol: rel(0.15)},
		{section: "Table 4", quantity: "future N_wv", paper: 1.14e5, ours: fut.NWv, tol: rel(0.15)},
		{section: "Table 4", quantity: "future F_re (flops/step)", paper: 8.13e13, ours: fut.FlopsReal, tol: rel(0.15)},
		{section: "Table 4", quantity: "future F_wn (flops/step)", paper: 1.37e14, ours: fut.FlopsWave, tol: rel(0.15)},
		{section: "Table 4", quantity: "future sec/step", paper: 4.48, ours: fut.SecPerStep, doc: inconsistency},
		{section: "Table 4", quantity: "future speed-up, current/future sec/step", paper: 43.8 / 4.48, ours: cur.SecPerStep / fut.SecPerStep, tol: in(5, 15)},
		{section: "Table 4", quantity: "future calculation speed (Tflops)", paper: 48.7, ours: fut.CalcTflops, doc: inconsistency},
		{section: "Table 4", quantity: "future effective speed (Tflops)", paper: 13.1, ours: fut.EffTflops, tol: in(6, 16)},
		{section: "model", quantity: "current WINE-2 compute (s/step)", paper: none, ours: curB.TWineCompute},
		{section: "model", quantity: "current WINE-2 transfer (s/step)", paper: none, ours: curB.TWineComm},
		{section: "model", quantity: "current MDGRAPE-2 compute (s/step)", paper: none, ours: curB.TMDGCompute},
		{section: "model", quantity: "current MDGRAPE-2 transfer (s/step)", paper: none, ours: curB.TMDGComm},
		{section: "model", quantity: "current host (s/step)", paper: none, ours: curB.THost},
		{section: "model", quantity: "future WINE-2 compute (s/step)", paper: none, ours: futB.TWineCompute},
		{section: "model", quantity: "future WINE-2 transfer (s/step)", paper: none, ours: futB.TWineComm},
		{section: "model", quantity: "future MDGRAPE-2 compute (s/step)", paper: none, ours: futB.TMDGCompute},
		{section: "model", quantity: "future MDGRAPE-2 transfer (s/step)", paper: none, ours: futB.TMDGComm},
		{section: "model", quantity: "future host (s/step)", paper: none, ours: futB.THost},

		{section: "Table 5", quantity: "MDGRAPE-2 chips, current", paper: 64, ours: float64(mc.Chips()), tol: exact()},
		{section: "Table 5", quantity: "MDGRAPE-2 chips, future", paper: 1536, ours: float64(mf.Chips()), tol: exact()},
		{section: "Table 5", quantity: "WINE-2 chips, current", paper: 2240, ours: float64(wc.Chips()), tol: exact()},
		{section: "Table 5", quantity: "WINE-2 chips, future", paper: 2688, ours: float64(wf.Chips()), tol: exact()},
		{section: "Table 5", quantity: "MDGRAPE-2 peak (Tflops), current", paper: 1, ours: curM.MDGPeak / 1e12, tol: rel(0.10)},
		{section: "Table 5", quantity: "MDGRAPE-2 peak (Tflops), future", paper: 25, ours: futM.MDGPeak / 1e12, tol: rel(0.10)},
		{section: "Table 5", quantity: "WINE-2 peak (Tflops), current", paper: 45, ours: curM.WinePeak / 1e12, tol: rel(0.10)},
		{section: "Table 5", quantity: "WINE-2 peak (Tflops), future", paper: 54, ours: futM.WinePeak / 1e12, tol: rel(0.10)},
		{section: "Table 5", quantity: "MDGRAPE-2 efficiency (%), current", paper: 26, ours: 100 * curM.MDGEff, doc: inconsistency},
		{section: "Table 5", quantity: "WINE-2 efficiency (%), current", paper: 29, ours: 100 * curM.WineEff, doc: inconsistency},
		{section: "Table 5", quantity: "MDGRAPE-2 efficiency (%), future", paper: 50, ours: 100 * futM.MDGEff, tol: exact()},
		{section: "Table 5", quantity: "WINE-2 efficiency (%), future", paper: 50, ours: 100 * futM.WineEff, tol: exact()},

		{section: "§3.1", quantity: "pipeline compute, N 10⁶ → 8·10⁶ (×)", says: "N^1.5: 22.6", ours: compute(b8) / compute(b1), tol: in(18, 28)},
		{section: "§3.1", quantity: "host + transfer, N 10⁶ → 8·10⁶ (×)", says: "N: 8", ours: overhead(b8) / overhead(b1), tol: in(math.Inf(-1), 9)},
		{section: "§3.1", quantity: "host + transfer share, 8·10⁶ / 10⁶", says: "falls", ours: (overhead(b8) / b8.Total) / (overhead(b1) / b1.Total), tol: below(1)},
		{section: "§6.1", quantity: "current F_wn / F_re", paper: 39, ours: cur.FlopsWave / cur.FlopsReal, tol: in(20, math.Inf(1))},
		{section: "§6.1", quantity: "future F_wn / F_re", paper: 1.7, ours: fut.FlopsWave / fut.FlopsReal, tol: in(math.Inf(-1), 4)},
		{section: "§6.2", quantity: "future sec/step at N = 10⁶", paper: 0.19, ours: million, tol: in(0.08, 0.5)},
		{section: "§6.2", quantity: "1.6 ns campaign, 3.2·10⁶ steps (days)", says: "~7", ours: million * 3.2e6 / 86400, tol: in(math.Inf(-1), 20)},
	}...)
	b := core.AccuracyBound
	for _, s := range stages {
		at := fmt.Sprintf(", 216 ions, α %.3g", s.alpha)
		rows = append(rows,
			claim{section: "§3.5.4", quantity: "real stage (MDGRAPE-2)" + at, says: "1e-7 per pair", ours: s.acc.Real.RMS, tol: upTo(b.Real.RMS)},
			claim{section: "§3.4.4", quantity: "wave stage (WINE-2)" + at, says: "10^-4.5", ours: s.acc.Wave.RMS, tol: upTo(b.Wave.RMS)},
			claim{section: "§3.4–5", quantity: "total force" + at, paper: none, ours: s.acc.Total.RMS, tol: upTo(b.Total.RMS)},
			claim{section: "§3.4–5", quantity: "potential |ΔU|/|U|" + at, paper: none, ours: s.acc.Potential, tol: upTo(b.Potential)},
		)
	}
	rows = append(rows, claim{section: "§5", quantity: "NVE energy drift, 64 ions, 100 + 100 steps", paper: 5e-7, ours: drift, tol: in(math.Inf(-1), 5e-5)})
	rows = append(rows, driftRows...)
	for _, pt := range fig2 {
		rows = append(rows, claim{section: "Fig. 2", quantity: fmt.Sprintf("σ_T/⟨T⟩ at N = %d", pt.N), paper: none, ours: pt.RelFluc})
	}
	return append(rows,
		claim{section: "Fig. 2", quantity: "σ_T/⟨T⟩ from one N to the next (×, largest)", says: "falls", ours: shrink, tol: below(1)},
		claim{section: "Fig. 2", quantity: "fitted exponent p of σ_T/⟨T⟩ ∝ N^p", paper: -0.5, ours: exponent, tol: in(-1, -0.2)},
		claim{section: "Fig. 2a", quantity: "mean NVE T after 15 NVT steps at 1200 K (K)", says: "declines", ours: analysis.Mean(temps2a), tol: in(math.Inf(-1), 1140)},
	), nil
}

// stage is the machine's error at one α.
type stage struct {
	alpha float64
	acc   core.Accuracy
}

// stageErrors judges the machine stage by stage against float64 over its own
// pair and wave sets (core.MeasureAccuracy) at 216 ions, 20 fs of free flight
// off the lattice on a 1,200 K Maxwell draw, at mdm's default α and at
// α = 14, where the wavenumber sum carries the force.
func stageErrors() ([]stage, error) {
	const cells = 3
	s, err := md.NewRockSalt(cells, 5.64)
	if err != nil {
		return nil, err
	}
	s.SetMaxwellVelocities(1200, 1)
	for i, v := range s.Vel {
		s.Pos[i] = s.Pos[i].Add(v.Scale(20)).Wrap(s.L)
	}
	var stages []stage
	for _, alpha := range []float64{0, 14} {
		p, err := mdm.Config{Cells: cells, Alpha: alpha}.EwaldParams()
		if err != nil {
			return nil, err
		}
		acc, err := core.MeasureAccuracy(core.CurrentMachineConfig(p), s)
		if err != nil {
			return nil, err
		}
		stages = append(stages, stage{p.Alpha, acc})
	}
	return stages, nil
}

// figure2 runs Figure 2's protocol, 150 NVT then 150 NVE steps at 1,200 K, at
// 64, 216 and 512 ions and returns σ_T/⟨T⟩ of each NVE segment.
func figure2() ([]analysis.FluctuationPoint, error) {
	var pts []analysis.FluctuationPoint
	for _, cells := range []int{2, 3, 4} {
		// The paper evaluated the potential sparsely; the temperature needs none.
		temps, _, err := simulate(mdm.Config{Cells: cells, PotentialEvery: 10}, 150, 150)
		if err != nil {
			return nil, err
		}
		mean, std := analysis.Mean(temps), analysis.Std(temps)
		pts = append(pts, analysis.FluctuationPoint{N: 8 * cells * cells * cells, MeanT: mean, StdT: std, RelFluc: std / mean})
	}
	return pts, nil
}

// simulate runs the §5 protocol on the MDM backend, nvt velocity-scaled steps
// then nve free ones, and returns the NVE temperatures and energy drift.
func simulate(cfg mdm.Config, nvt, nve int) (temps []float64, drift float64, err error) {
	sim, err := mdm.NewSimulation(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer func() { err = errors.Join(err, sim.Free()) }()
	if err := sim.RunNVT(nvt); err != nil {
		return nil, 0, err
	}
	if err := sim.RunNVE(nve); err != nil {
		return nil, 0, err
	}
	recs := sim.Records()
	for _, r := range recs[len(recs)-nve:] {
		temps = append(temps, r.T)
	}
	return temps, sim.EnergyDrift(), nil
}
