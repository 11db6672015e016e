package mdm

import (
	"fmt"

	"mdm/internal/analysis"
)

// Figure2Series is the temperature trace of one Figure 2 panel.
type Figure2Series struct {
	Cells int       // rock-salt cells per side
	N     int       // particle count
	Times []float64 // ps
	Temps []float64 // K
	Mean  float64
	Std   float64
}

// Figure2Config parameterizes the temperature-fluctuation experiment of
// Figure 2. The paper ran N = 1.10×10⁵, 1.48×10⁶ and 1.88×10⁷ particles for
// 2,000 NVT + 1,000 NVE steps at 1,200 K; this reproduction runs the same
// protocol at laptop-feasible N (the claim under test — σ_T ∝ N^(-1/2) — is
// independent of the absolute scale).
type Figure2Config struct {
	CellsList   []int   // e.g. {2, 3, 4}: N = 64, 216, 512 …
	NVTSteps    int     // default 120
	NVESteps    int     // default 60
	Temperature float64 // default 1200 K
	Dt          float64 // default 2 fs
	Backend     Backend // default BackendMDM
	Seed        int64   // default 1
}

func (c *Figure2Config) fillDefaults() {
	if len(c.CellsList) == 0 {
		c.CellsList = []int{2, 3, 4}
	}
	if c.NVTSteps == 0 {
		c.NVTSteps = 120
	}
	if c.NVESteps == 0 {
		c.NVESteps = 60
	}
	if c.Temperature == 0 {
		c.Temperature = 1200
	}
	if c.Dt == 0 {
		c.Dt = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RunFigure2 executes the protocol for every system size and returns the
// temperature traces plus the (N, σ_T/T) points with the fitted power law.
// The canonical-ensemble expectation is exponent ≈ -1/2: Figure 2's visual
// message, made quantitative.
func RunFigure2(cfg Figure2Config) ([]Figure2Series, []analysis.FluctuationPoint, error) {
	cfg.fillDefaults()
	var series []Figure2Series
	var pts []analysis.FluctuationPoint
	for _, cells := range cfg.CellsList {
		sim, err := NewSimulation(Config{
			Cells:          cells,
			Temperature:    cfg.Temperature,
			Dt:             cfg.Dt,
			Backend:        cfg.Backend,
			Seed:           cfg.Seed,
			PotentialEvery: 10, // the paper evaluated the potential sparsely
		})
		if err != nil {
			return nil, nil, fmt.Errorf("mdm: figure 2 at %d cells: %w", cells, err)
		}
		if err := sim.RunNVT(cfg.NVTSteps); err != nil {
			return nil, nil, err
		}
		if err := sim.RunNVE(cfg.NVESteps); err != nil {
			return nil, nil, err
		}
		// Fluctuations from the NVE segment (NVT velocity scaling pins T).
		recs := sim.Records()
		nve := recs[len(recs)-cfg.NVESteps:]
		var temps, times []float64
		for _, r := range nve {
			temps = append(temps, r.T)
			times = append(times, r.Time)
		}
		mean := analysis.Mean(temps)
		std := analysis.Std(temps)
		series = append(series, Figure2Series{
			Cells: cells,
			N:     sim.N(),
			Times: times,
			Temps: temps,
			Mean:  mean,
			Std:   std,
		})
		if mean > 0 && std > 0 {
			pts = append(pts, analysis.FluctuationPoint{
				N: sim.N(), MeanT: mean, StdT: std, RelFluc: std / mean,
			})
		}
		if err := sim.Free(); err != nil {
			return nil, nil, err
		}
	}
	return series, pts, nil
}
