package wine2

import (
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

// TestIntoReuseBitIdentical pins the scratch-reusing Into entry point to the
// allocating path: repeated CalcForceAndPotWavepartCoordsInto calls on one
// session, reusing the returned force planes, must be bit-identical to fresh
// CalcForceAndPotWavepart calls on a fresh session — with and without a
// communicator (the redbuf path).
func TestIntoReuseBitIdentical(t *testing.T) {
	for _, comm := range []Communicator{nil, &fakeComm{size: 2}} {
		mk := func() *Library {
			lib, err := NewLibrary(CurrentConfig())
			if err != nil {
				t.Fatal(err)
			}
			lib.SetMPICommunity(comm)
			if err := lib.AllocateBoards(7); err != nil {
				t.Fatal(err)
			}
			if err := lib.InitializeBoards(); err != nil {
				t.Fatal(err)
			}
			if err := lib.SetNN(24); err != nil {
				t.Fatal(err)
			}
			return lib
		}
		reuse, fresh := mk(), mk()
		p := ewald.Params{L: 10, Alpha: 6, RCut: 5, LKCut: 4}
		waves := ewald.Waves(p)
		pos, q := testSystem(24, 10, 9)
		var dst soa.Coords
		for step := 0; step < 4; step++ {
			// Drift the positions so each step quantizes a new image.
			for i := range pos {
				pos[i] = pos[i].Add(vec.New(0.01*float64(step), -0.02, 0.015)).Wrap(p.L)
			}
			var err error
			dst, _, err = reuse.CalcForceAndPotWavepartCoordsInto(p, waves, pos, q, dst)
			if err != nil {
				t.Fatal(err)
			}
			want, wantPot, err := fresh.CalcForceAndPotWavepart(p, waves, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			gotAgain, gotPot, err := reuse.CalcForceAndPotWavepartCoordsInto(p, waves, pos, q, dst)
			if err != nil {
				t.Fatal(err)
			}
			if &gotAgain.X[0] != &dst.X[0] {
				t.Fatalf("step %d: dst not reused", step)
			}
			if gotPot != wantPot {
				t.Fatalf("step %d: pot %g != fresh %g", step, gotPot, wantPot)
			}
			for i, got := range dst.AppendAoS(nil) {
				if got != want[i] {
					t.Fatalf("step %d: force %d differs: reused %v vs fresh %v",
						step, i, got, want[i])
				}
			}
			// Keep the fresh session's call count in step with the reusing one
			// (it made one extra call above).
			if _, _, err := fresh.CalcForceAndPotWavepart(p, waves, pos, q); err != nil {
				t.Fatal(err)
			}
		}
	}
}
