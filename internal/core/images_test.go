package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"mdm/internal/ewald"
)

// workloadParams is the Ewald discretization mdm.Config.EwaldParams resolves
// for cells³ unit cells of NaCl at lattice constant 5.64 Å and α (0: the
// default balance, floored at r_cut = 0.45 L).
func workloadParams(cells int, alpha float64) ewald.Params {
	l := float64(cells) * 5.64
	if alpha == 0 {
		n := float64(8 * cells * cells * cells)
		alpha = math.Max(ewald.SReal/0.45, ewald.ConventionalCost().OptimalAlpha(l, n/(l*l*l)))
	}
	p := ewald.ParamsForAlpha(l, alpha)
	if p.RCut > l/2 {
		p.RCut = 0.45 * l
	}
	return p
}

// hashWords is the first 8 bytes, in hex, of the SHA-256 of the
// little-endian words put writes.
func hashWords(put func(w func(uint64))) string {
	d := sha256.New()
	var buf [8]byte
	put(func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	})
	return fmt.Sprintf("%x", d.Sum(nil)[:8])
}

// Pinned images: the four MDGRAPE-2 kernel RAMs (independent of the
// discretization: α and L enter through the coefficient RAM), and per
// benchmark workload the host-potential rows and the wave set (N and A).
var (
	goldenKernelImages = map[string]string{
		tableCoulomb: "79145f772b2113c1",
		tableBM:      "0a6459247ff1fd3b",
		tableDisp6:   "e019a6cc2665ef93",
		tableDisp8:   "dd7d8f532a7608c0",
	}
	goldenWorkloadImages = []struct {
		workload    string
		cells       int
		alpha       float64
		rows, waves string
	}{
		{"default_n512", 4, 0, "67013b42eb6719eb", "84574f9e3f327a4f"},
		{"wave_n512", 4, 14, "c402026558e7d8a1", "890e0581652f47c7"},
		{"overlap_n512", 4, 9, "1e8af1c593e36937", "ab03edd950b6377e"},
		{"decomp_r2_n512", 4, 0, "67013b42eb6719eb", "84574f9e3f327a4f"},
		{"serve_durable_n64", 2, 0, "30b6e184c78a6e2c", "7166dba7cf81d28e"},
	}
)

// TestTableImagesPinned pins every fitted image an engine builds at the
// benchmark workloads' parameters, so a change to the fit or to libm reads
// "table X changed" rather than a lattice hash. The hashes were recorded on
// an FMA amd64 host, like the lattice goldens: math.Exp, Log and Erfc take
// an FMA branch there at run time.
func TestTableImagesPinned(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("the pinned images are libm's FMA results; a host-independent libm is ROADMAP item 1")
	}
	const drift = "(a changed fit, or libm drift: ROADMAP item 1)"
	m := newTestMachine(t, workloadParams(4, 0))
	defer m.Free()
	for _, k := range forceTables {
		tbl, err := m.real.mr1.System().Table(k.name)
		if err != nil {
			t.Fatal(err)
		}
		got := hashWords(func(w func(uint64)) {
			for s := 0; s < tbl.Segments(); s++ {
				for _, c := range tbl.Row(s) {
					w(uint64(math.Float32bits(c)))
				}
			}
		})
		if want := goldenKernelImages[k.name]; got != want {
			t.Errorf("kernel table %s: image %s, want %s %s", k.name, got, want, drift)
		}
	}
	for _, g := range goldenWorkloadImages {
		p := workloadParams(g.cells, g.alpha)
		pot, err := newPotTable(p)
		if err != nil {
			t.Fatal(err)
		}
		rows := hashWords(func(w func(uint64)) {
			for _, r := range pot.rows {
				for _, c := range r {
					w(math.Float64bits(c))
				}
			}
		})
		waves := hashWords(func(w func(uint64)) {
			for _, wv := range ewald.Waves(p) {
				for _, n := range wv.N {
					w(uint64(n))
				}
				w(math.Float64bits(wv.A))
			}
		})
		if rows != g.rows {
			t.Errorf("%s: host-potential rows %s, want %s %s", g.workload, rows, g.rows, drift)
		}
		if waves != g.waves {
			t.Errorf("%s: wave set %s, want %s %s", g.workload, waves, g.waves, drift)
		}
	}
}

// BenchmarkNewMachine times an engine's cold start — the four kernel fits,
// the host-potential fit, the wave set and the board cycle — at 64 and 512
// ions, at the default α and at α = 14.
func BenchmarkNewMachine(b *testing.B) {
	for _, cells := range []int{2, 4} {
		for _, alpha := range []float64{0, 14} {
			p := workloadParams(cells, alpha)
			b.Run(fmt.Sprintf("n%d/alpha=%v", 8*cells*cells*cells, alpha), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := NewMachine(CurrentMachineConfig(p))
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Free(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
