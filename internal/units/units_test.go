package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoulombConstant(t *testing.T) {
	// e²/(4πε0) in SI, converted to eV·Å.
	const (
		e    = 1.602176634e-19 // C
		eps0 = 8.8541878128e-12
	)
	want := e * e / (4 * math.Pi * eps0) * JToEV * 1e10 // J·m → eV·Å
	if math.Abs(Coulomb-want)/want > 1e-9 {
		t.Errorf("Coulomb = %v, want %v", Coulomb, want)
	}
}

func TestForceToAccel(t *testing.T) {
	// 1 eV/Å acting on 1 amu: a = F/m in SI, converted to Å/fs².
	const (
		eV  = 1.602176634e-19   // J
		amu = 1.66053906892e-27 // kg
	)
	aSI := (eV / 1e-10) / amu // m/s²
	want := aSI * 1e10 / 1e30 // Å/fs²
	if math.Abs(ForceToAccel-want)/want > 1e-6 {
		t.Errorf("ForceToAccel = %v, want %v", ForceToAccel, want)
	}
}

func TestKineticTemperatureRoundTrip(t *testing.T) {
	f := func(tK float64, n int) bool {
		tK = math.Abs(math.Mod(tK, 1e4))
		if n < 0 {
			n = -n
		}
		n = n%100000 + 1
		ke := KelvinToKinetic(tK, n)
		back := KineticToKelvin(ke, n)
		return math.Abs(back-tK) <= 1e-9*(1+tK)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKineticToKelvinDegenerate(t *testing.T) {
	if got := KineticToKelvin(1.0, 0); got != 0 {
		t.Errorf("n=0: got %g", got)
	}
	if got := KineticToKelvin(1.0, -5); got != 0 {
		t.Errorf("n<0: got %g", got)
	}
}

func TestThermalSpeedMagnitude(t *testing.T) {
	// Na at 1200 K: v = sqrt(3 k_B T / m). Expect on the order of 1e-2 Å/fs
	// (≈ 1000 m/s), a well-known molten-salt scale.
	v := ThermalSpeed(1200, MassNa)
	if v < 5e-3 || v > 5e-2 {
		t.Errorf("ThermalSpeed(1200K, Na) = %g Å/fs, outside plausible range", v)
	}
	// v in m/s:
	ms := v * 1e-10 / 1e-15
	if ms < 500 || ms > 5000 {
		t.Errorf("thermal speed = %g m/s, implausible", ms)
	}
}

func TestThermalSpeedDegenerate(t *testing.T) {
	if ThermalSpeed(0, MassNa) != 0 || ThermalSpeed(300, 0) != 0 || ThermalSpeed(-10, MassNa) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(1.01, 1.0, 0); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("RelativeError = %g", got)
	}
	if got := RelativeError(1e-20, 0, 1e-10); math.Abs(got-1e-10) > 1e-18 {
		t.Errorf("floored RelativeError = %g, want 1e-10", got)
	}
	if got := RelativeError(0, 0, 0); got != 0 {
		t.Errorf("0/0 RelativeError = %g", got)
	}
	if got := RelativeError(1, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("1/0 RelativeError = %g, want +Inf", got)
	}
}

func TestKineticConsistentWithEquipartition(t *testing.T) {
	// 2 particles at 300 K hold 3 k_B T of kinetic energy.
	ke := KelvinToKinetic(300, 2)
	want := 3 * Boltzmann * 300
	if math.Abs(ke-want) > 1e-15 {
		t.Errorf("ke = %g, want %g", ke, want)
	}
}

// RelativeError returns |got-want| / max(|want|, floor). It is the error
// measure used throughout the accuracy experiments (§3.4.4, §3.5.4 of the
// paper): relative to the reference magnitude with a floor to avoid dividing
// by a vanishing reference.
func RelativeError(got, want, floor float64) float64 {
	d := math.Abs(got - want)
	m := math.Abs(want)
	if m < floor {
		m = floor
	}
	if m == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / m
}

// ThermalSpeed returns the RMS speed (Å/fs) of a particle of mass m (amu) at
// temperature t (K): v = sqrt(3 k_B T / m) with the eV→(Å/fs)² conversion.
func ThermalSpeed(t, m float64) float64 {
	if m <= 0 || t <= 0 {
		return 0
	}
	// v² [ (Å/fs)² ] = 3 k_B T [eV] / m [amu] × ForceToAccel [ (Å/fs²)·amu/(eV/Å) ]
	// (eV/amu → (Å/fs)² carries the same conversion factor as (eV/Å)/amu → Å/fs².)
	return math.Sqrt(3 * Boltzmann * t / m * ForceToAccel)
}
