package wine2

import (
	"encoding/binary"
	"fmt"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/fixed"
	"mdm/internal/parallelize"
)

// fuzzWaves is a small wave set in rows: |n_x| ≤ 3, |n_y| ≤ 1, n_z ∈ {0, 1},
// the origin left out.
func fuzzWaves() []ewald.Wave {
	var waves []ewald.Wave
	for nz := 0; nz <= 1; nz++ {
		for ny := -1; ny <= 1; ny++ {
			for nx := -3; nx <= 3; nx++ {
				if nr := nx*nx + ny*ny + nz*nz; nr != 0 {
					waves = append(waves, ewald.Wave{N: [3]int{nx, ny, nz}, A: 1 / float64(nr)})
				}
			}
		}
	}
	return waves
}

// fuzzParticle is the byte length of one particle's record in a
// FuzzWinePipelines input: three 3-byte position words, a charge kind byte
// and a 4-byte charge word.
const fuzzParticle = 14

// FuzzWinePipelines runs both passes on an arbitrary particle image and
// requires the oracle loops' bits (matchOracle) and the DFT loop the words
// call for. The first byte picks the datapath format and the pool width;
// each particle record gives PosFrac-bit position words and a charge word of
// one kind: on the DFT rounder's grid, off it (low bit set), either extreme
// of the charge format, a unit charge, or the raw word.
func FuzzWinePipelines(f *testing.F) {
	unit := func(n int, kind byte) []byte {
		b := []byte{0}
		for i := 0; i < n; i++ {
			b = append(b, byte(37*i), byte(11*i), byte(i), byte(91*i), 0, byte(7*i), 200, byte(i), byte(3*i), kind, 0x55, byte(i), 0x0f, byte(i*13))
		}
		return b
	}
	for kind := byte(0); kind < 6; kind++ {
		f.Add(unit(5, kind))
	}
	mixed := unit(6, 4)
	mixed[1+2*fuzzParticle+9] = 1 // one off-grid word among unit charges
	f.Add(mixed)
	f.Add(append([]byte{3 | 1<<4}, unit(3, 2)[1:]...))
	f.Add(append([]byte{9}, unit(4, 1)[1:]...)) // widen-one: odd words, on the grid of a widening rounder
	waves := fuzzWaves()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+fuzzParticle {
			return
		}
		form := datapathFormats[int(data[0]&15)%len(datapathFormats)]
		cfg := CurrentConfig()
		form.mod(&cfg)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		width := 1 + int(data[0]>>4)%3
		sys.SetPool(parallelize.New(width))
		qf := fixed.F(5, cfg.QFrac)
		grid := int64(1) // the DFT rounder's grid, in charge words
		if right := int(cfg.QFrac+cfg.TrigFormat.Frac) - int(cfg.AccFrac); right > 0 {
			grid <<= right
		}
		n := min((len(data)-1)/fuzzParticle, 24)
		pw := &ParticleWords{L: 10}
		pw.q = make([]float64, n)
		// 24 bits of a turn, placed at the top of the PosFrac-bit word.
		pos := func(b []byte) int64 { return (int64(b[0]) | int64(b[1])<<8 | int64(b[2])<<16) << cfg.PosFrac >> 24 }
		onGrid := true
		for i := 0; i < n; i++ {
			r := data[1+i*fuzzParticle : 1+(i+1)*fuzzParticle]
			pw.Ux, pw.Uy, pw.Uz = append(pw.Ux, pos(r[0:3])), append(pw.Uy, pos(r[3:6])), append(pw.Uz, pos(r[6:9]))
			raw := int64(int32(binary.LittleEndian.Uint32(r[10:14]))) >> (32 - (cfg.QFrac + 6)) // in [MinRaw, MaxRaw]
			var q int64
			switch r[9] % 6 {
			case 0:
				q = raw &^ (grid - 1)
			case 1:
				q = raw | 1
			case 2:
				q = qf.MaxRaw()
			case 3:
				q = qf.MinRaw()
			case 4:
				q = int64(1) << cfg.QFrac
				if raw < 0 {
					q = -q
				}
			default:
				q = raw
			}
			pw.Q = append(pw.Q, q)
			pw.q[i] = qf.Float(q)
			onGrid = onGrid && q%grid == 0
		}
		if got := sys.exactCharges(pw.Q); got != onGrid {
			t.Fatalf("%s: exact DFT loop %v for charge words %v (grid %d)", form.name, got, pw.Q, grid)
		}
		matchOracle(t, fmt.Sprintf("%s/workers=%d/n=%d", form.name, width, n), sys, waves, pw)
	})
}
