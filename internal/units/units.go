// Package units defines the unit system and physical constants used by the
// MDM reproduction.
//
// We use "metal-like" molecular-dynamics units, matching the scales quoted in
// the paper (Å box sides, fs time-steps, Kelvin temperatures):
//
//	length      Å (ångström)
//	time        fs (femtosecond)
//	energy      eV (electron-volt)
//	charge      e (elementary charge)
//	mass        amu (unified atomic mass unit)
//	temperature K (kelvin)
//
// In this system forces are eV/Å and the Coulomb energy between two unit
// charges at 1 Å is Coulomb (≈14.4 eV).
package units

// Physical constants in the package unit system.
const (
	// Coulomb is the Coulomb constant 1/(4 π ε0) in eV·Å/e².
	Coulomb = 14.399645478425668

	// Boltzmann is k_B in eV/K.
	Boltzmann = 8.617333262e-5

	// ForceToAccel converts a force/mass ratio of 1 (eV/Å)/amu into an
	// acceleration in Å/fs².
	ForceToAccel = 9.648533212331e-3

	// JToEV converts joules to electron-volts.
	JToEV = 1.0 / 1.602176634e-19

	// M6ToA6 converts m⁶ to Å⁶ (for dispersion coefficients quoted in J·m⁶).
	M6ToA6 = 1e60

	// M8ToA8 converts m⁸ to Å⁸.
	M8ToA8 = 1e80

	// EVPerA3ToGPa converts a pressure from eV/Å³ to gigapascal.
	EVPerA3ToGPa = 160.21766208
)

// Atomic masses in amu for the species used in the paper's simulations.
const (
	MassNa = 22.98976928
	MassCl = 35.453
)

// KineticToKelvin converts a total kinetic energy (eV) of n point particles
// into an instantaneous temperature via KE = (3/2) n k_B T.
// It returns 0 for n <= 0.
func KineticToKelvin(ke float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return 2 * ke / (3 * float64(n) * Boltzmann)
}

// KelvinToKinetic is the inverse of KineticToKelvin: the kinetic energy (eV)
// of n particles at temperature t (K).
func KelvinToKinetic(t float64, n int) float64 {
	return 1.5 * float64(n) * Boltzmann * t
}
