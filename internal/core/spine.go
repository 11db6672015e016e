package core

// The step-phase spine: where an engine's Forces call spends its time, per
// goroutine. Two ranks book it: real rank 0, which runs on the caller's
// goroutine (j-set, sweep, join, combine), and wave rank 0 (the WINE-2
// pass); at the 1 + 1 layout the lane that finishes first then lends itself
// to the other's pass until it ends (lend). A due call's sweep carries the
// host potential and books as a phase of its own, so the potential's cost is
// the difference of the two sweeps'. Both lanes start at the driver's reading
// at the call's start. Each lane adds only to its own row of the sink, and
// the caller reads the wave row only after World.Run has joined every rank,
// so recording takes no lock, no atomic and no allocation. The clock is
// injected: the engine never reads time itself. At several real ranks, rank
// 0's halo and ghost exchange books as its j-set phase.

// Phase is one slice of a Forces call.
type Phase uint8

// The phases of a Forces call, a fixed enum so a record is an array add.
const (
	PhaseJSetBuild      Phase = iota // the skin clock and the j-set sorted afresh (a rebuild step)
	PhaseJSetRefresh                 // the skin clock and the j-set's stored coordinates moved (a reuse step)
	PhaseSweep                       // the MDGRAPE-2 fused sweep, on a call the potential is not due
	PhaseSweepPotential              // the fused sweep carrying the host potential, on a due call
	PhaseWave                        // the wave rank's start, set_nn and the WINE-2 wavenumber pass
	PhaseJoinWait                    // the caller blocked on the other ranks' force payloads
	PhaseCombine                     // real + wave forces into the output slice
	PhaseLend                        // the lane that finished first, claiming chunks of the other's pass until it ends
	NumPhases
)

var phaseNames = [NumPhases]string{"jset_build", "jset_refresh", "sweep", "sweep_potential", "wave", "join_wait", "combine", "lend"}

func (p Phase) String() string { return phaseNames[p] }

// Lane is the goroutine a phase ran on.
type Lane uint8

// The two lanes of a Forces call.
const (
	LaneCaller Lane = iota // real rank 0, on the goroutine that called Forces
	LaneWave               // wave rank 0's goroutine
	NumLanes
)

var laneNames = [NumLanes]string{"caller", "wave"}

func (l Lane) String() string { return laneNames[l] }

// PhaseTotal is how many times a phase ran on a lane and for how long in
// all, in the sink clock's nanoseconds.
type PhaseTotal struct {
	Count int64
	Nanos int64
}

// PhaseRecord is a sink's totals, per lane and phase.
type PhaseRecord [NumLanes][NumPhases]PhaseTotal

// PhaseSink accumulates the step-phase spine of the engine it is installed
// on (MachineConfig.Phases). Like fault.HardwareHook it is off when nil, at
// one nil check per record. It serves one engine at a time; a run that
// rebuilds its engine (a restart) may hand the next one the same sink, and
// the totals carry on.
type PhaseSink struct {
	clock func() int64
	lanes PhaseRecord
}

// NewPhaseSink returns an empty sink reading clock, nanoseconds from any
// fixed origin.
func NewPhaseSink(clock func() int64) *PhaseSink { return &PhaseSink{clock: clock} }

// Snapshot returns the totals so far. Call it between Forces calls.
func (p *PhaseSink) Snapshot() PhaseRecord { return p.lanes }

// now reads the clock, 0 on a nil sink.
func (p *PhaseSink) now() int64 {
	if p == nil {
		return 0
	}
	return p.clock()
}

// book adds to lane's row one run of phase that began at t, and returns the
// clock's reading, where the lane's next phase begins. It must be called
// from lane's own goroutine. A nil sink books nothing.
func (p *PhaseSink) book(lane Lane, phase Phase, t int64) int64 {
	if p == nil {
		return 0
	}
	return p.bookAt(lane, phase, t, p.clock())
}

// bookAt is book with the run's end read already: now, a reading another
// lane took (the release that ended a lend).
func (p *PhaseSink) bookAt(lane Lane, phase Phase, t, now int64) int64 {
	if p == nil {
		return 0
	}
	a := &p.lanes[lane][phase]
	a.Count++
	a.Nanos += now - t
	return now
}
