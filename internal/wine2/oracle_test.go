package wine2

import (
	"math/rand"
	"slices"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/fixed"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// The pipeline loops as they were before the datapath was resolved per call:
// every particle·wave goes through the general fixed-point operations
// (SinCosTable.SinCos with the phase width passed in, MulRound, Convert with
// both formats passed in). Kept as the independent oracle for the DFT and
// IDFT loops on configurations the golden trajectories do not cover.

func oracleDFT(cfg Config, trig *fixed.SinCosTable, waves []ewald.Wave, pw *ParticleWords) (sn, cn []float64) {
	trigFrac := cfg.TrigFormat.Frac
	prodFrac := cfg.QFrac + trigFrac
	accF := fixed.F(0, cfg.AccFrac)
	accWide := fixed.F(30, cfg.AccFrac)
	prodWide := fixed.WideFor(prodFrac)
	sn = make([]float64, len(waves))
	cn = make([]float64, len(waves))
	for w := range waves {
		var accPlus, accMinus int64
		for j := range pw.Ux {
			n := waves[w].N
			ph := int64(n[0])*pw.Ux[j] + int64(n[1])*pw.Uy[j] + int64(n[2])*pw.Uz[j]
			sj, cj := trig.SinCos(ph, cfg.PosFrac)
			qs := fixed.MulRound(pw.Q[j], sj, cfg.QFrac, trigFrac, prodFrac)
			qc := fixed.MulRound(pw.Q[j], cj, cfg.QFrac, trigFrac, prodFrac)
			qs = fixed.Convert(qs, prodWide, accWide)
			qc = fixed.Convert(qc, prodWide, accWide)
			accPlus += qs + qc
			accMinus += qs - qc
		}
		plus := accF.Float(accPlus)
		minus := accF.Float(accMinus)
		sn[w] = (plus + minus) / 2
		cn[w] = (plus - minus) / 2
	}
	return sn, cn
}

func oracleIDFT(cfg Config, trig *fixed.SinCosTable, waves []ewald.Wave, sn, cn []float64, pw *ParticleWords) []vec.V {
	scale := 0.0
	for w := range waves {
		for _, v := range []float64{waves[w].A * sn[w], waves[w].A * cn[w]} {
			if v < 0 {
				v = -v
			}
			if v > scale {
				scale = v
			}
		}
	}
	forces := make([]vec.V, pw.N())
	if scale == 0 {
		return forces
	}
	cf := fixed.F(1, cfg.CoefFrac)
	trigFrac := cfg.TrigFormat.Frac
	prodFrac := cfg.CoefFrac + trigFrac
	tF := fixed.F(2, cfg.IAccFrac)
	iaccF := fixed.F(0, cfg.IAccFrac)
	prodWide := fixed.WideFor(prodFrac)
	l := pw.L
	pref := 4 * units.Coulomb / (l * l * l * l) * scale
	for i := range forces {
		var ax, ay, az int64
		for w := range waves {
			aS := cf.Quantize(waves[w].A * sn[w] / scale)
			aC := cf.Quantize(waves[w].A * cn[w] / scale)
			n := waves[w].N
			ph := int64(n[0])*pw.Ux[i] + int64(n[1])*pw.Uy[i] + int64(n[2])*pw.Uz[i]
			si, ci := trig.SinCos(ph, cfg.PosFrac)
			t1 := fixed.MulRound(aC, si, cfg.CoefFrac, trigFrac, prodFrac)
			t2 := fixed.MulRound(aS, ci, cfg.CoefFrac, trigFrac, prodFrac)
			t := fixed.Convert(t1-t2, prodWide, tF)
			ax += t * int64(n[0])
			ay += t * int64(n[1])
			az += t * int64(n[2])
		}
		forces[i] = vec.New(iaccF.Float(ax), iaccF.Float(ay), iaccF.Float(az)).Scale(pref * pw.q[i])
	}
	return forces
}

// datapathFormats are the fixed-point geometries the datapath tests run on:
// the shipped machine, the ablation formats, the narrowest phase a table
// admits, and formats where the product is narrower than the accumulator (the
// rounder widens instead of narrowing) or exactly as wide.
var datapathFormats = []struct {
	name string
	mod  func(*Config)
}{
	{"current", func(*Config) {}},
	{"pos16", func(c *Config) { c.PosFrac = 16 }},
	{"pos12", func(c *Config) { c.PosFrac = 12 }},
	{"sin6", func(c *Config) { c.SinLogSize = 6 }},
	{"sin4", func(c *Config) { c.SinLogSize = 4 }},
	{"trig10", func(c *Config) { c.TrigFormat = fixed.F(1, 10) }},
	{"narrow-prod", func(c *Config) { c.QFrac, c.CoefFrac, c.TrigFormat = 4, 8, fixed.F(1, 10) }},
	{"equal-width", func(c *Config) {
		c.QFrac, c.CoefFrac, c.TrigFormat = 8, 8, fixed.F(1, 22)
		c.AccFrac, c.IAccFrac = 30, 30
	}},
	{"pos14-sin12", func(c *Config) { c.PosFrac, c.SinLogSize = 14, 12 }},
	{"widen-one", func(c *Config) { c.QFrac, c.CoefFrac, c.AccFrac, c.IAccFrac = 7, 8, 30, 31 }},
}

// chargeImages are the charge sets the datapath tests run the DFT's two
// loops on, by the words' place against the rounder's grid: unit charges of
// both signs and all negative — widening rounders fed nothing but negative
// products, where a sign term left unmasked would show — and ±k/256 e, all on
// the grid of CurrentConfig's 12-bit DFT shift; ±0.8 e and spread fractions
// off it; and one off-grid word among unit charges, which must send the whole
// image down the rounding loop.
func chargeImages(q []float64) []chargeImage {
	neg, grid, frac, mixed := make([]float64, len(q)), make([]float64, len(q)), make([]float64, len(q)), slices.Clone(q)
	for i := range q {
		neg[i] = -1
		grid[i] = q[i] * float64(1+i%255) / 256
		frac[i] = q[i] * (0.8 + 0.01*float64(i%7))
	}
	mixed[len(q)/2] *= 0.8
	return []chargeImage{
		{"unit", q, true}, {"negative", neg, true}, {"grid256", grid, true},
		{"fractional", frac, false}, {"mixed", mixed, false},
	}
}

type chargeImage struct {
	name   string
	q      []float64
	onGrid bool // every word a multiple of 2^12 at QFrac 20
}

// TestPipelinesMatchGeneralDatapath pins both passes, bit for bit, to the
// oracle loops on every datapath format and every charge image, and pins the
// DFT loop each image takes: the exact loop when every word is on the
// rounder's grid or the rounder narrows by nothing (its Mul puts every word
// on the grid), the rounding loop otherwise.
func TestPipelinesMatchGeneralDatapath(t *testing.T) {
	const l = 12.0
	pos, q := testSystem(48, l, 5)
	p := ewald.Params{L: l, Alpha: 7, RCut: 5, LKCut: 5}
	waves := ewald.Waves(p)
	for _, f := range datapathFormats {
		for _, img := range chargeImages(q) {
			cfg := CurrentConfig()
			f.mod(&cfg)
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			trig, err := fixed.NewSinCosTable(cfg.SinLogSize, cfg.TrigFormat)
			if err != nil {
				t.Fatal(err)
			}
			pw, err := sys.Quantize(l, pos, img.q)
			if err != nil {
				t.Fatal(err)
			}
			widens := cfg.AccFrac >= cfg.QFrac+cfg.TrigFormat.Frac
			if got, want := sys.exactCharges(pw.Q), img.onGrid || widens; got != want {
				t.Errorf("%s/%s: exact DFT loop %v, want %v", f.name, img.name, got, want)
			}
			sn, cn, err := sys.DFTQuantizedInto(waves, pw, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantS, wantC := oracleDFT(cfg, trig, waves, pw)
			for w := range waves {
				if sn[w] != wantS[w] || cn[w] != wantC[w] {
					t.Fatalf("%s/%s: wave %d: DFT (%v, %v), oracle (%v, %v)", f.name, img.name, w, sn[w], cn[w], wantS[w], wantC[w])
				}
			}
			got, err := sys.IDFTQuantizedInto(waves, sn, cn, pw, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleIDFT(cfg, trig, waves, sn, cn, pw)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: particle %d: IDFT %v, oracle %v", f.name, img.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSaturatorsUnreachable: the pipelines carry no saturator, on the
// strength of Config.rounders' range proof. Feed each one its operand
// extremes — charge words at both ends of the charge format, coefficient words
// exactly ±2^CoefFrac with S = −C, phases where sine or cosine sits on ±peak —
// and 10^5 random words, and require what the general datapath computes with
// Convert's saturator in place.
func TestSaturatorsUnreachable(t *testing.T) {
	for _, f := range datapathFormats {
		cfg := CurrentConfig()
		f.mod(&cfg)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		tab, err := fixed.NewSinCosTable(cfg.SinLogSize, cfg.TrigFormat)
		if err != nil {
			t.Fatal(err)
		}
		trigFrac := cfg.TrigFormat.Frac
		turn := int64(1) << cfg.PosFrac
		// One wave along x, so a particle's phase is its Ux word.
		phases := []int64{0, turn / 8, turn / 4, 3 * turn / 8, turn / 2, 5 * turn / 8, 3 * turn / 4, 7 * turn / 8, turn - 1}
		nExtreme := len(phases)
		rng := rand.New(rand.NewSource(20))
		for i := 0; i < 100000; i++ {
			phases = append(phases, rng.Int63n(turn))
		}

		// DFT mode: the extreme phases against both ends of the charge format,
		// the random ones against one end and a random charge word.
		qf := fixed.F(5, cfg.QFrac)
		pw := &ParticleWords{}
		for i, ph := range phases {
			charges := [2]int64{qf.MaxRaw(), qf.MinRaw()}
			if i >= nExtreme {
				charges[i%2] = qf.MinRaw() + rng.Int63n(qf.MaxRaw()-qf.MinRaw()+1)
			}
			pw.Ux, pw.Q = append(pw.Ux, ph, ph), append(pw.Q, charges[0], charges[1])
		}
		pw.Uy, pw.Uz = make([]int64, len(pw.Ux)), make([]int64, len(pw.Ux))
		prodWide, accWide := fixed.WideFor(cfg.QFrac+trigFrac), fixed.F(30, cfg.AccFrac)
		var wantPlus, wantMinus int64
		for j, ph := range pw.Ux {
			sj, cj := tab.SinCos(ph, cfg.PosFrac)
			qs := fixed.Convert(pw.Q[j]*sj, prodWide, accWide)
			qc := fixed.Convert(pw.Q[j]*cj, prodWide, accWide)
			wantPlus += qs + qc
			wantMinus += qs - qc
		}
		var acc [1][2]int64
		dftRow(&sys.trig, sys.dftRound, 1, 0, 0, pw, acc[:])
		if plus, minus := acc[0][0]+acc[0][1], acc[0][0]-acc[0][1]; plus != wantPlus || minus != wantMinus {
			t.Errorf("%s: DFT accumulators (%d, %d), saturating datapath (%d, %d)", f.name, plus, minus, wantPlus, wantMinus)
		}

		// IDFT mode: one particle per phase, against coefficient pairs at the
		// block normalization's bound and random ones inside it.
		one := int64(1) << cfg.CoefFrac
		var aS, aC []int64
		for _, c := range [][2]int64{{one, -one}, {-one, one}, {one, one}, {-one, -one}, {one, 0}, {0, -one}} {
			aS, aC = append(aS, c[0]), append(aC, c[1])
		}
		for i := 0; i < 26; i++ {
			aS, aC = append(aS, rng.Int63n(2*one+1)-one), append(aC, rng.Int63n(2*one+1)-one)
		}
		waves := make([]ewald.Wave, len(aS))
		scaledS, scaledC := make([]int64, len(aS)), make([]int64, len(aS))
		for w := range waves {
			waves[w].N = [3]int{1, 0, 0}
			scaledS[w], scaledC[w] = sys.idftRound.Mul*aS[w], sys.idftRound.Mul*aC[w]
		}
		// Equal waves make rows of one, in the caller's order.
		rows := sys.rowsFor(waves).rows
		iprodWide, tF := fixed.WideFor(cfg.CoefFrac+trigFrac), fixed.F(2, cfg.IAccFrac)
		for k, ph := range phases[:3000] { // × 32 waves: 10^5 products
			var want [2]int64
			for p, ph := range [2]int64{ph, phases[k+1]} {
				si, ci := tab.SinCos(ph, cfg.PosFrac)
				for w := range waves {
					want[p] += fixed.Convert(aC[w]*si-aS[w]*ci, iprodWide, tF)
				}
			}
			if a := idftPair(&sys.trig, sys.idftRound, rows, scaledS, scaledC, ph, 0, 0, phases[k+1], 0, 0); a != [2][3]int64{{want[0]}, {want[1]}} {
				t.Fatalf("%s: phase %d: IDFT accumulators %v, saturating datapath (%d, 0, 0), (%d, 0, 0)", f.name, ph, a, want[0], want[1])
			}
		}
	}
}
