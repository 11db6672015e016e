package mdgrape2

import (
	"fmt"

	"mdm/internal/fault"
	"mdm/internal/parallelize"
	"mdm/internal/vec"
)

// MR1 reproduces the MDGRAPE-2 library of Table 3 as a session object. The
// method-to-routine mapping is:
//
//	AllocateBoards  ↔ MR1allocateboard  (set the number of boards to acquire)
//	Init            ↔ MR1init           (acquire MDGRAPE-2 boards)
//	SetTable        ↔ MR1SetTable       (set the function table g(x))
//	CalcVDWBlock2   ↔ MR1calcvdw_block2 (real-space force, cell-index method)
//	Free            ↔ MR1free           (release MDGRAPE-2 boards)
//
// Like the real library, calculation calls are rejected until boards are
// acquired, and the function table is generated beforehand and loaded at
// initialization time (§4).
type MR1 struct {
	cfg       Config
	requested int
	sys       *System
	hook      fault.HardwareHook
	pool      *parallelize.Pool
}

// NewMR1 creates a library session against a machine of the given
// configuration. No boards are acquired yet.
func NewMR1(cfg Config) (*MR1, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MR1{cfg: cfg}, nil
}

// AllocateBoards records how many boards the session will acquire
// (MR1allocateboard). It must be called before Init.
func (m *MR1) AllocateBoards(n int) error {
	if m.sys != nil {
		return fmt.Errorf("mdgrape2: boards already acquired")
	}
	if n < 1 || n > m.cfg.Boards() {
		return fmt.Errorf("mdgrape2: cannot allocate %d boards, machine has %d", n, m.cfg.Boards())
	}
	m.requested = n
	return nil
}

// Init acquires the allocated boards (MR1init). The session then behaves as
// a machine restricted to the acquired boards.
func (m *MR1) Init() error {
	if m.requested == 0 {
		return fmt.Errorf("mdgrape2: MR1init before MR1allocateboard")
	}
	if m.sys != nil {
		return fmt.Errorf("mdgrape2: already initialized")
	}
	sub := m.cfg
	// Restrict the hierarchy to the acquired boards, keeping whole clusters
	// where possible (a board is acquired through its cluster's bus bridge).
	sub.Clusters = (m.requested + m.cfg.BoardsPerCluster - 1) / m.cfg.BoardsPerCluster
	sub.BoardsPerCluster = m.cfg.BoardsPerCluster
	if m.requested < sub.Clusters*sub.BoardsPerCluster {
		// Partial last cluster: model as boards-per-cluster 1 over the
		// requested count for accounting purposes.
		sub.Clusters = m.requested
		sub.BoardsPerCluster = 1
	}
	sys, err := NewSystem(sub)
	if err != nil {
		return err
	}
	sys.SetFaultHook(m.hook)
	sys.SetPool(m.pool)
	m.sys = sys
	return nil
}

// SetFaultHook installs the hardware hook on the session's hardware; it
// survives Init/Free cycles.
func (m *MR1) SetFaultHook(h fault.HardwareHook) {
	m.hook = h
	if m.sys != nil {
		m.sys.SetFaultHook(h)
	}
}

// SetPool installs the worker pool on the session's hardware; it survives
// Init/Free cycles. A nil pool runs serially.
func (m *MR1) SetPool(p *parallelize.Pool) {
	m.pool = p
	if m.sys != nil {
		m.sys.SetPool(p)
	}
}

// SetTable generates and loads the g(x) function table (MR1SetTable). The
// table is fitted with the 1,024-segment fourth-order interpolator over
// [2^emin, 2^emax).
func (m *MR1) SetTable(name string, g func(float64) float64, emin, emax int) error {
	if m.sys == nil {
		return fmt.Errorf("mdgrape2: MR1SetTable before MR1init")
	}
	return m.sys.LoadTable(name, g, emin, emax)
}

// CalcVDWBlock2 computes the real-space part of the force with the
// cell-index method (MR1calcvdw_block2): forces on the xi/ti block from the
// j-set js, using the named table and the coefficient RAM co. See
// System.ComputeForces for the scale semantics.
//
//mdm:stepflow -- hot-path root: the MDGRAPE-2 session's per-step kernel pass (Table 3 loop)
func (m *MR1) CalcVDWBlock2(table string, co *Coeffs, xi []vec.V, ti []int, scaleI []float64, js *JSet) ([]vec.V, error) {
	if m.sys == nil {
		return nil, fmt.Errorf("mdgrape2: MR1calcvdw_block2 before MR1init")
	}
	return m.sys.ComputeForces(table, co, xi, ti, scaleI, js)
}

// Free releases the boards (MR1free). The session can be re-initialized.
func (m *MR1) Free() error {
	if m.sys == nil {
		return fmt.Errorf("mdgrape2: MR1free without MR1init")
	}
	m.sys = nil
	m.requested = 0
	return nil
}

// System exposes the underlying simulated machine (nil before Init); tests
// and the performance model read its statistics.
func (m *MR1) System() *System { return m.sys }
