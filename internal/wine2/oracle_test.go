package wine2

import (
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

// TestPipelinesMatchGeneralDatapath pins both passes, bit for bit, to the
// oracle loops for the shipped machine, the ablation formats, and formats
// where the product is narrower than the accumulator (the rounder's
// left-shift direction).
func TestPipelinesMatchGeneralDatapath(t *testing.T) {
	mods := map[string]func(*Config){
		"current":     func(*Config) {},
		"pos16":       func(c *Config) { c.PosFrac = 16 },
		"pos12":       func(c *Config) { c.PosFrac = 12 },
		"sin6":        func(c *Config) { c.SinLogSize = 6 },
		"sin4":        func(c *Config) { c.SinLogSize = 4 },
		"trig10":      func(c *Config) { c.TrigFormat = fixed.F(1, 10) },
		"narrow-prod": func(c *Config) { c.QFrac, c.CoefFrac, c.TrigFormat = 4, 8, fixed.F(1, 10) },
		"equal-width": func(c *Config) {
			c.QFrac, c.CoefFrac, c.TrigFormat = 8, 8, fixed.F(1, 22)
			c.AccFrac, c.IAccFrac = 30, 30
		},
	}
	const l = 12.0
	pos, q := testSystem(48, l, 5)
	p := ewald.Params{L: l, Alpha: 7, RCut: 5, LKCut: 5}
	waves := ewald.Waves(p)
	for name, mod := range mods {
		cfg := CurrentConfig()
		mod(&cfg)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trig, err := fixed.NewSinCosTable(cfg.SinLogSize, cfg.TrigFormat)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := sys.Quantize(l, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		sn, cn, err := sys.DFTQuantizedInto(waves, pw, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantS, wantC := oracleDFT(cfg, trig, waves, pw)
		for w := range waves {
			if sn[w] != wantS[w] || cn[w] != wantC[w] {
				t.Fatalf("%s: wave %d: DFT (%v, %v), oracle (%v, %v)", name, w, sn[w], cn[w], wantS[w], wantC[w])
			}
		}
		got, err := sys.IDFTQuantizedInto(waves, sn, cn, pw, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleIDFT(cfg, trig, waves, sn, cn, pw)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: particle %d: IDFT %v, oracle %v", name, i, got[i], want[i])
			}
		}
	}
}
