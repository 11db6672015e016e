package wine2

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"mdm/internal/fixed"
)

// The pipelines read sine and cosine through trigRows; SinCosTable.SinCos
// is the one reference they must match.

// sinCos is the sine and cosine of one phase as the pipeline loops read it.
func (t *trigRows) sinCos(ph int64) (sin, cos int64) {
	s, c := t.views()
	i, rem := ph>>(t.shift&63)&t.idxMask, ph&t.remMask
	return s[i].at(rem, t.shift), c[i].at(rem, t.shift)
}

// TestTrigRowsMatchSinCos: for the shipped unit, every phase of one turn —
// all 2^24, which covers every row of both views, the cosine's wrap past a
// turn and every remainder — read through the rows equals
// SinCosTable.SinCos.
func TestTrigRowsMatchSinCos(t *testing.T) {
	cfg := CurrentConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := oracleSine(cfg)
	for ph := int64(0); ph < 1<<cfg.PosFrac; ph++ {
		gs, gc := sys.trig.sinCos(ph)
		if ws, wc := ref.SinCos(ph); gs != ws || gc != wc {
			t.Fatalf("phase %d: rows (%d, %d), SinCos (%d, %d)", ph, gs, gc, ws, wc)
		}
	}
}

// TestTrigRowsAtBoundaries: on every datapath format, every row read at the
// remainders where the bias could differ from the table's sign and rounding
// terms — 0, 1, half − 1, half, half + 1 and 2^shift − 1 — and a fixed-seed
// random walk of phases equal SinCosTable.SinCos.
func TestTrigRowsAtBoundaries(t *testing.T) {
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
		check := func(ph int64) {
			gs, gc := sys.trig.sinCos(ph)
			if ws, wc := tab.SinCos(ph, cfg.PosFrac); gs != ws || gc != wc {
				t.Fatalf("%s: phase %d: rows (%d, %d), SinCos (%d, %d)", f.name, ph, gs, gc, ws, wc)
			}
		}
		seg := int64(1) << (cfg.PosFrac - cfg.SinLogSize)
		half := seg / 2
		for row := int64(0); row < 1<<cfg.SinLogSize; row++ {
			for _, rem := range []int64{0, 1, half - 1, half, half + 1, seg - 1} {
				check(row*seg + rem)
			}
		}
		rng := rand.New(rand.NewSource(45))
		for i := 0; i < 1<<16; i++ {
			check(rng.Int63() - rng.Int63())
		}
	}
}

// FuzzTrigRows draws a trig unit (SinLogSize, TrigFormat, PosFrac) and a
// phase; a unit Config.Validate admits must read, through its rows, what
// SinCosTable.SinCos computes — at the phase, and at the phase's remainder and
// either end of the segment on the first and last rows and on either side of
// the peaks, where a row's A + D·rem is widest and the carrier term would show
// first. The charge and
// coefficient widths are the narrowest Validate takes, so the trig unit is
// what admits or refuses a draw.
func FuzzTrigRows(f *testing.F) {
	seed := func(logSize, trigInt, trigFrac, posFrac uint8, ph uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{logSize, trigInt, trigFrac, posFrac}, ph)
	}
	f.Add(seed(10, 1, 22, 24, 0x123456))  // the shipped unit
	f.Add(seed(6, 1, 28, 40, 0x4000ffff)) // Frac + PosFrac − SinLogSize = 62, the widest admitted
	f.Add(seed(6, 1, 29, 40, 0x4000ffff)) // 63: refused
	f.Add(seed(2, 0, 3, 8, 7))            // four rows, samples saturating at ±1
	f.Add(seed(12, 1, 22, 14, 0x3fff))    // two interpolation bits under a large table
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		cfg := CurrentConfig()
		cfg.QFrac, cfg.CoefFrac, cfg.AccFrac, cfg.IAccFrac = 4, 8, 8, 8
		cfg.SinLogSize = uint(data[0] % 21)
		cfg.TrigFormat = fixed.F(uint(data[1]%2), uint(data[2]%62))
		cfg.PosFrac = uint(data[3] % 41)
		if cfg.Validate() != nil {
			return
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%+v: Validate admits, NewSystem refuses: %v", cfg, err)
		}
		tab, err := fixed.NewSinCosTable(cfg.SinLogSize, cfg.TrigFormat)
		if err != nil {
			t.Fatal(err)
		}
		ph := int64(binary.LittleEndian.Uint64(data[4:12]))
		shift := cfg.PosFrac - cfg.SinLogSize
		rem := ph & (int64(1)<<shift - 1)
		k := int64(1) << cfg.SinLogSize
		check := func(p int64) {
			gs, gc := sys.trig.sinCos(p)
			if ws, wc := tab.SinCos(p, cfg.PosFrac); gs != ws || gc != wc {
				t.Fatalf("table 2^%d %v, %d-bit phase %d: rows (%d, %d), SinCos (%d, %d)",
					cfg.SinLogSize, cfg.TrigFormat, cfg.PosFrac, p, gs, gc, ws, wc)
			}
		}
		check(ph)
		for _, row := range []int64{0, k - 1, k/4 - 1, k / 4, 3*k/4 - 1, 3 * k / 4} {
			for _, r := range []int64{0, rem, int64(1)<<shift - 1} {
				check(row<<shift | r)
			}
		}
	})
}

// TestNewSystemAllocatesOnlyRows: NewSystem builds the trig rows straight
// from the samples, with no sample table beside them: two allocations, the
// System and its rows, and a byte count that a 2^k + 1-word table (8 KB for
// the shipped unit) would push past the bound.
func TestNewSystemAllocatesOnlyRows(t *testing.T) {
	cfg := CurrentConfig()
	build := func() {
		if _, err := NewSystem(cfg); err != nil {
			t.Fatal(err)
		}
	}
	n := 1 << cfg.SinLogSize
	rows := uint64(n+n/4) * uint64(unsafe.Sizeof(trigRow{}))
	limit := rows + uint64(unsafe.Sizeof(System{})) + 512 // the System's size-class rounding
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, build)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("%.0f allocs, %d B per NewSystem (rows %d B)", allocs, bytes, rows)
	if allocs != 2 {
		t.Errorf("%.0f allocations per NewSystem, want 2: the System and its rows", allocs)
	}
	if bytes > limit {
		t.Errorf("%d B per NewSystem, want ≤ %d: the rows (%d B) and the System", bytes, limit, rows)
	}
}
