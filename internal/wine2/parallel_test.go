package wine2

import (
	"math"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/parallelize"
)

// The DFT stripes waves and the IDFT stripes particles across the pool; the
// fixed-point accumulators live entirely inside one shard, so every pool
// width must return bit-for-bit the serial result.

func TestDFTIDFTBitIdenticalAcrossWorkers(t *testing.T) {
	const l = 12.0
	pos, q := testSystem(96, l, 3)
	p := ewald.Params{L: l, Alpha: 7, RCut: 5, LKCut: 6}
	waves := ewald.Waves(p)
	// Both DFT loops: every image of the datapath tests, the exact loop's
	// and the rounding loop's.
	for _, img := range chargeImages(q) {
		serial, err := NewSystem(CurrentConfig())
		if err != nil {
			t.Fatal(err)
		}
		sn0, cn0, err := serial.DFT(l, waves, pos, img.q)
		if err != nil {
			t.Fatal(err)
		}
		f0, err := serial.IDFT(l, waves, sn0, cn0, pos, img.q)
		if err != nil {
			t.Fatal(err)
		}

		for _, w := range []int{2, 3, 4, 8} {
			sys, err := NewSystem(CurrentConfig())
			if err != nil {
				t.Fatal(err)
			}
			sys.SetPool(parallelize.New(w))
			sn, cn, err := sys.DFT(l, waves, pos, img.q)
			if err != nil {
				t.Fatal(err)
			}
			for k := range sn0 {
				if math.Float64bits(sn[k]) != math.Float64bits(sn0[k]) ||
					math.Float64bits(cn[k]) != math.Float64bits(cn0[k]) {
					t.Fatalf("%s/workers=%d: structure factor %d differs: (%x,%x) vs (%x,%x)",
						img.name, w, k, math.Float64bits(sn[k]), math.Float64bits(cn[k]),
						math.Float64bits(sn0[k]), math.Float64bits(cn0[k]))
				}
			}
			f, err := sys.IDFT(l, waves, sn, cn, pos, img.q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range f0 {
				if math.Float64bits(f[i].X) != math.Float64bits(f0[i].X) ||
					math.Float64bits(f[i].Y) != math.Float64bits(f0[i].Y) ||
					math.Float64bits(f[i].Z) != math.Float64bits(f0[i].Z) {
					t.Fatalf("%s/workers=%d: force %d differs: %v vs %v", img.name, w, i, f[i], f0[i])
				}
			}
		}
	}
}

// Quantize + DFTQuantizedInto/IDFTQuantizedInto must agree exactly with the
// one-shot entry points: the hoisted SDRAM image is the same data the fused
// paths derive internally.

func TestQuantizedEntryPointsMatchFused(t *testing.T) {
	const l = 12.0
	pos, q := testSystem(64, l, 5)
	p := ewald.Params{L: l, Alpha: 7, RCut: 5, LKCut: 6}
	waves := ewald.Waves(p)
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	sn0, cn0, err := sys.DFT(l, waves, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := sys.IDFT(l, waves, sn0, cn0, pos, q)
	if err != nil {
		t.Fatal(err)
	}

	pw, err := sys.Quantize(l, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	if pw.N() != len(pos) {
		t.Fatalf("ParticleWords.N = %d, want %d", pw.N(), len(pos))
	}
	sn, cn, err := sys.DFTQuantizedInto(waves, pw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sys.IDFTQuantizedInto(waves, sn, cn, pw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sn0 {
		if sn[k] != sn0[k] || cn[k] != cn0[k] {
			t.Fatalf("structure factor %d differs via quantized path", k)
		}
	}
	for i := range f0 {
		if f[i] != f0[i] {
			t.Fatalf("force %d differs via quantized path: %v vs %v", i, f[i], f0[i])
		}
	}
}
