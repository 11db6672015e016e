package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"go/format"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/funceval"
	"mdm/internal/mdgrape2"
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

// Pinned images per benchmark workload: the host-potential rows and the wave
// set (N and A). The four MDGRAPE-2 kernel images are committed in
// kernelimages.go; TestTableImagesPinned compares them with their fit.
var goldenWorkloadImages = []struct {
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

var updateImages = flag.Bool("update", false, "rewrite kernelimages.go from the four kernel fits")

// fmaOff reports whether this process runs libm without the FMA branch
// math.Exp, Log and Erfc take at run time on an FMA amd64 host.
func fmaOff() bool { return strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") }

// TestTableImagesPinned compares each committed kernel image bit for bit
// with the fit mdgrape2.LoadTable makes of its kernel over its domain, and
// pins every other image an engine builds at the benchmark workloads'
// parameters, so a change to the fit or to libm reads "table X changed"
// rather than a lattice hash. The images and hashes were recorded on an FMA
// amd64 host, like the lattice goldens: math.Exp, Log and Erfc take an FMA
// branch there at run time. With -update the test rewrites kernelimages.go
// from the fits first (writeKernelImages, which refuses without FMA).
func TestTableImagesPinned(t *testing.T) {
	if fmaOff() && !*updateImages {
		t.Skip("the pinned images are libm's FMA results; a host-independent libm is ROADMAP item 1")
	}
	const drift = "(a changed fit, or libm drift: ROADMAP item 1)"
	fits := fitKernelTables(t)
	if *updateImages {
		if err := writeKernelImages("kernelimages.go", fits); err != nil {
			t.Fatal(err)
		}
		t.Log("kernelimages.go rewritten: rebuild the test binary to compare it")
		return
	}
	images, err := kernelImages()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range forceTables {
		fit, img := fits[i], images[i]
		flo, fhi := fit.Domain()
		if ilo, ihi := img.Domain(); ilo != flo || ihi != fhi || img.Segments() != fit.Segments() {
			t.Errorf("kernel table %s: image covers [%g, %g) in %d segments, the fit [%g, %g) in %d",
				k.name, ilo, ihi, img.Segments(), flo, fhi, fit.Segments())
			continue
		}
		for s := 0; s < fit.Segments(); s++ {
			want, got := fit.Row(s), img.Row(s)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Errorf("kernel table %s: segment %d word %d is %g, the fit %g %s", k.name, s, j, got[j], want[j], drift)
				}
			}
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

// BenchmarkNewMachine times an engine's cold start — the host-potential fit,
// the wave set, the board cycle with its four committed kernel images — at
// 64 and 512 ions, at the default α and at α = 14.
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

// fitKernelTables fits the four kernels as mdgrape2.LoadTable does for an
// MR1SetTable call, in forceTables' order.
func fitKernelTables(t *testing.T) []*funceval.Table {
	t.Helper()
	sys, err := mdgrape2.NewSystem(mdgrape2.CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	fits := make([]*funceval.Table, len(forceTables))
	for i, k := range forceTables {
		if err := sys.LoadTable(k.name, k.g, k.emin, k.emax); err != nil {
			t.Fatal(err)
		}
		if fits[i], err = sys.Table(k.name); err != nil {
			t.Fatal(err)
		}
	}
	return fits
}

// TestImageUpdateRefusedWithoutFMA: where the pin skips, -update refuses to
// write, so no host whose libm differs from the FMA fit commits images.
func TestImageUpdateRefusedWithoutFMA(t *testing.T) {
	fits := fitKernelTables(t)
	t.Setenv("GODEBUG", "cpu.fma=off")
	path := filepath.Join(t.TempDir(), "kernelimages.go")
	if err := writeKernelImages(path, fits); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("writeKernelImages under cpu.fma=off = %v, want a refusal", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the refused update left %s (stat: %v)", path, err)
	}
}

// TestNewMachineFootprint: an engine start at 64 ions and the default α
// allocates at most 54,400 B (54,216 measured, 54,344 under the race
// detector). Its kernel tables are the committed images, referenced in the
// binary's data; fitting them would add about 80 KB. The 1 + 1 layout builds
// no ghost geometry or per-destination scratch; its lending is ≈ 300 B.
func TestNewMachineFootprint(t *testing.T) {
	p := workloadParams(2, 0)
	build := func() {
		m, err := NewMachine(CurrentMachineConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(); err != nil {
			t.Fatal(err)
		}
	}
	build() // kernelImages builds the four Tables once per process
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("NewMachine at 64 ions: %d B", least)
	if least > 54400 {
		t.Errorf("NewMachine at 64 ions allocates %d B, budget 54,400 B", least)
	}
}

// writeKernelImages writes the fitted tables as kernelimages.go's source, one
// tableImage per kernel in hex-float words (exact), formatted by go/format.
// It refuses without the FMA libm: the images are that libm's fits, and the
// pin skips where it cannot compare them.
func writeKernelImages(path string, fits []*funceval.Table) error {
	if fmaOff() {
		return errors.New("core: refusing to write kernel images under GODEBUG=cpu.fma=off: they are the FMA libm's fits")
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by \"go test -run TestTableImagesPinned -update ./internal/core\"; DO NOT EDIT.\n\npackage core\n")
	for i, k := range forceTables {
		name := imageVar(k.name)
		fmt.Fprintf(&b, "\n// %s is the %s table: %d segments over [2^%d, 2^%d).\nvar %s = tableImage{\n",
			name, k.name, fits[i].Segments(), k.emin, k.emax, name)
		for s := 0; s < fits[i].Segments(); s++ {
			b.WriteString("{")
			for j, c := range fits[i].Row(s) {
				if j > 0 {
					b.WriteString(", ")
				}
				if c == 0 {
					b.WriteString("0")
				} else {
					b.WriteString(strconv.FormatFloat(float64(c), 'x', -1, 32))
				}
			}
			b.WriteString("},\n")
		}
		b.WriteString("}\n")
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		return err
	}
	return os.WriteFile(path, src, 0o644)
}

// imageVar is the variable holding a table's image: "born-mayer" →
// bornMayerImage.
func imageVar(table string) string {
	parts := strings.Split(table, "-")
	for i := 1; i < len(parts); i++ {
		parts[i] = strings.ToUpper(parts[i][:1]) + parts[i][1:]
	}
	return strings.Join(parts, "") + "Image"
}
