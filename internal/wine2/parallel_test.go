package wine2

import (
	"errors"
	"math"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/vec"
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

// panicFixture is a 96-particle image, its wave set and structure factors,
// on a System striped over workers; truncate cuts a word plane of the image
// to half its particles, the malformed input that makes a pipeline chunk
// index past it and panic.
func panicFixture(t *testing.T, workers int) (*System, []ewald.Wave, *ParticleWords, []float64, []float64, []vec.V, []float64) {
	t.Helper()
	const l = 12.0
	pos, q := testSystem(96, l, 3)
	waves := ewald.Waves(ewald.Params{L: l, Alpha: 7, RCut: 5, LKCut: 6})
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPool(parallelize.New(workers))
	pw, err := sys.Quantize(l, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	sn, cn, err := sys.DFTQuantizedInto(waves, pw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, waves, pw, sn, cn, pos, q
}

// truncate cuts a word plane to half its length and capacity.
func truncate(w []int64) []int64 { return w[: len(w)/2 : len(w)/2] }

// wantPanicError fails t unless err wraps a pool chunk's *PanicError.
func wantPanicError(t *testing.T, call string, workers int, err error) {
	t.Helper()
	if pe := (*parallelize.PanicError)(nil); !errors.As(err, &pe) {
		t.Errorf("workers %d: %s over a malformed image returned %v, want a *parallelize.PanicError", workers, call, err)
	}
}

// TestQuantizePanicFailsTheCall: a quantize chunk that panics — here on a
// reused image whose charge plane is too short — fails QuantizeInto with the
// pool's *PanicError instead of returning words it never wrote, at pool
// widths 1 and 3.
func TestQuantizePanicFailsTheCall(t *testing.T) {
	for _, workers := range []int{1, 3} {
		sys, _, pw, _, _, pos, q := panicFixture(t, workers)
		pw.Q = truncate(pw.Q)
		_, err := sys.QuantizeInto(pw, pw.L, pos, q)
		wantPanicError(t, "QuantizeInto", workers, err)
	}
}

// TestDFTPanicFailsTheCall: a DFT chunk that panics — on an image whose y
// plane is too short — fails DFTQuantizedInto with the *PanicError instead
// of returning structure factors it never wrote, at pool widths 1 and 3.
func TestDFTPanicFailsTheCall(t *testing.T) {
	for _, workers := range []int{1, 3} {
		sys, waves, pw, sn, cn, _, _ := panicFixture(t, workers)
		pw.Uy = truncate(pw.Uy)
		_, _, err := sys.DFTQuantizedInto(waves, pw, sn, cn)
		wantPanicError(t, "DFTQuantizedInto", workers, err)
	}
}

// TestIDFTPanicFailsTheCall: an IDFT chunk that panics — on an image whose y
// plane is too short — fails IDFTQuantizedCoordsInto, and the
// array-of-structs IDFTQuantizedInto over it, with the *PanicError instead
// of returning forces it never wrote, at pool widths 1 and 3.
func TestIDFTPanicFailsTheCall(t *testing.T) {
	for _, workers := range []int{1, 3} {
		sys, waves, pw, sn, cn, _, _ := panicFixture(t, workers)
		pw.Uy = truncate(pw.Uy)
		_, err := sys.IDFTQuantizedCoordsInto(waves, sn, cn, pw, soa.Coords{})
		wantPanicError(t, "IDFTQuantizedCoordsInto", workers, err)
		_, err = sys.IDFTQuantizedInto(waves, sn, cn, pw, nil)
		wantPanicError(t, "IDFTQuantizedInto", workers, err)
	}
}
