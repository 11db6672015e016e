package wine2

import (
	"fmt"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

// Communicator is the message-passing interface the WINE-2 library was
// parallelized with (§4: "the library routine for force calculation is
// already parallelized with MPI, and users do not care any communication
// between processes"). The internal/mpi package satisfies it.
type Communicator interface {
	Rank() int
	Size() int
	// AllreduceSum replaces vals with the element-wise sum across all ranks
	// and returns the result.
	AllreduceSum(vals []float64) ([]float64, error)
}

// Library reproduces the WINE-2 library of Table 2 as a session object:
//
//	SetMPICommunity        ↔ wine2_set_MPI_community
//	AllocateBoards         ↔ wine2_allocate_board
//	InitializeBoards       ↔ wine2_initialize_board
//	SetNN                  ↔ wine2_set_nn
//	CalcForceAndPotWavepart ↔ calculate_force_and_pot_wavepart_nooffset
//	FreeBoards             ↔ wine2_free_board
//
// All processes call the routines with the same parameters except the force
// calculation, where each process passes its own ~N/P particle positions; the
// library reduces the structure factors across processes internally.
type Library struct {
	cfg       Config
	comm      Communicator
	requested int
	nn        int
	sys       *System
	hook      fault.HardwareHook
	pool      *parallelize.Pool

	// Per-call scratch, reused across force calls. A Library session serves
	// one goroutine at a time (as one host process drove one WINE-2 board
	// set); concurrent CalcForceAndPotWavepart calls on a single Library are
	// not supported.
	pw     *ParticleWords
	sn, cn []float64
	redbuf []float64
}

// NewLibrary creates a session against a machine configuration.
func NewLibrary(cfg Config) (*Library, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Library{cfg: cfg}, nil
}

// SetMPICommunity registers the communicator used for the wavenumber-space
// part (wine2_set_MPI_community). A nil communicator means single-process
// operation.
func (l *Library) SetMPICommunity(comm Communicator) { l.comm = comm }

// SetFaultHook installs the hardware hook on the session's hardware; it
// survives InitializeBoards/FreeBoards cycles.
func (l *Library) SetFaultHook(h fault.HardwareHook) {
	l.hook = h
	if l.sys != nil {
		l.sys.SetFaultHook(h)
	}
}

// SetPool installs the worker pool on the session's hardware; it survives
// InitializeBoards/FreeBoards cycles. A nil pool runs serially.
func (l *Library) SetPool(p *parallelize.Pool) {
	l.pool = p
	if l.sys != nil {
		l.sys.SetPool(p)
	}
}

// AllocateBoards records the number of boards to acquire
// (wine2_allocate_board).
func (l *Library) AllocateBoards(n int) error {
	if l.sys != nil {
		return fmt.Errorf("wine2: boards already acquired")
	}
	if n < 1 || n > l.cfg.Boards() {
		return fmt.Errorf("wine2: cannot allocate %d boards, machine has %d", n, l.cfg.Boards())
	}
	l.requested = n
	return nil
}

// InitializeBoards acquires the boards (wine2_initialize_board).
func (l *Library) InitializeBoards() error {
	if l.requested == 0 {
		return fmt.Errorf("wine2: initialize before allocate")
	}
	if l.sys != nil {
		return fmt.Errorf("wine2: already initialized")
	}
	sub := l.cfg
	sub.Clusters = (l.requested + l.cfg.BoardsPerCluster - 1) / l.cfg.BoardsPerCluster
	sub.BoardsPerCluster = l.cfg.BoardsPerCluster
	if l.requested < sub.Clusters*sub.BoardsPerCluster {
		sub.Clusters = l.requested
		sub.BoardsPerCluster = 1
	}
	sys, err := NewSystem(sub)
	if err != nil {
		return err
	}
	sys.SetFaultHook(l.hook)
	sys.SetPool(l.pool)
	l.sys = sys
	return nil
}

// SetNN declares the number of particles each process will pass to the force
// calculation (wine2_set_nn).
func (l *Library) SetNN(n int) error {
	if l.sys == nil {
		return fmt.Errorf("wine2: set_nn before initialize")
	}
	if n < 1 {
		return fmt.Errorf("wine2: nn %d must be positive", n)
	}
	if n > l.sys.Config().ParticleCapacity() {
		return fmt.Errorf("wine2: nn %d exceeds particle memory capacity %d", n, l.sys.Config().ParticleCapacity())
	}
	l.nn = n
	return nil
}

// CalcForceAndPotWavepart computes the wavenumber-space part of the Coulomb
// force on this process's particles and the total wavenumber-space potential
// energy (calculate_force_and_pot_wavepart_nooffset). Each process passes its
// own positions/charges; the structure factors are summed across the
// communicator before the IDFT, so the returned potential is the full-system
// value on every rank.
func (l *Library) CalcForceAndPotWavepart(p ewald.Params, waves []ewald.Wave, pos []vec.V, q []float64) ([]vec.V, float64, error) {
	fc, pot, err := l.CalcForceAndPotWavepartCoordsInto(p, waves, pos, q, soa.Coords{})
	if err != nil {
		return nil, 0, err
	}
	return fc.AppendAoS(nil), pot, nil
}

// CalcForceAndPotWavepartCoordsInto is CalcForceAndPotWavepart writing the
// force components into structure-of-arrays planes (dst is reused when large
// enough) and drawing all intermediate buffers — the quantized particle image,
// the structure factors, the reduction message — from session scratch.
//
//mdm:stepflow -- hot-path root: the WINE-2 session's per-step wavenumber pass, SoA output (Table 2 loop)
func (l *Library) CalcForceAndPotWavepartCoordsInto(p ewald.Params, waves []ewald.Wave, pos []vec.V, q []float64, dst soa.Coords) (soa.Coords, float64, error) {
	pw, sn, cn, err := l.wavePrepare(p, waves, pos, q)
	if err != nil {
		return soa.Coords{}, 0, err
	}
	fc, err := l.sys.IDFTQuantizedCoordsInto(waves, sn, cn, pw, dst)
	if err != nil {
		return soa.Coords{}, 0, err
	}
	pot := ewald.WavenumberEnergy(p, waves, sn, cn)
	return fc, pot, nil
}

// wavePrepare is the shared host flow of a force call up to the IDFT: session
// checks, the single SDRAM particle-image write both passes read, the DFT,
// and the cross-process structure-factor reduction.
func (l *Library) wavePrepare(p ewald.Params, waves []ewald.Wave, pos []vec.V, q []float64) (*ParticleWords, []float64, []float64, error) {
	if l.sys == nil {
		return nil, nil, nil, fmt.Errorf("wine2: force call before initialize")
	}
	if l.nn == 0 {
		return nil, nil, nil, fmt.Errorf("wine2: force call before set_nn")
	}
	if len(pos) > l.nn {
		return nil, nil, nil, fmt.Errorf("wine2: %d particles exceed declared nn %d", len(pos), l.nn)
	}
	// Write the SDRAM particle image once; the DFT and IDFT passes both read
	// it, halving the host quantization work of the call pair.
	pw, err := l.sys.QuantizeInto(l.pw, p.L, pos, q)
	if err != nil {
		return nil, nil, nil, err
	}
	l.pw = pw
	sn, cn, err := l.sys.DFTQuantizedInto(waves, pw, l.sn, l.cn)
	if err != nil {
		return nil, nil, nil, err
	}
	l.sn, l.cn = sn, cn
	if l.comm != nil && l.comm.Size() > 1 {
		// Reduce S and C across processes in one message, mirroring the
		// single exchange of the hardware's S+C / S-C readout.
		if cap(l.redbuf) < 2*len(waves) {
			l.redbuf = make([]float64, 0, 2*len(waves))
		}
		buf := l.redbuf[:0]
		buf = append(buf, sn...)
		buf = append(buf, cn...)
		buf, err = l.comm.AllreduceSum(buf)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("wine2: structure-factor reduction: %w", err)
		}
		sn = buf[:len(waves)]
		cn = buf[len(waves):]
	}
	return pw, sn, cn, nil
}

// FreeBoards releases the boards (wine2_free_board).
func (l *Library) FreeBoards() error {
	if l.sys == nil {
		return fmt.Errorf("wine2: free without initialize")
	}
	l.sys = nil
	l.requested = 0
	l.nn = 0
	return nil
}

// System exposes the underlying simulated machine (nil before
// InitializeBoards).
func (l *Library) System() *System { return l.sys }
