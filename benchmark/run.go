package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mdm"
	"mdm/internal/core"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/serve"
	"mdm/internal/store"
	"mdm/internal/supervise"
	"mdm/internal/vec"
)

// check is one validity check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what one pass over a workload measured. The fixed portion — the
// first fixed×block operations after warm-up — is the same work at any
// machine speed, so the hash, the live heap, the guard checks and every count
// are taken at its end and repeat exactly for a seed; the timed window then
// runs on until the budget is spent and contributes timing and allocation
// samples only.
type outcome struct {
	w          workload
	samples    []sample  // one per timed operation (step or session), in order
	blockAlloc []float64 // per block of the timed window: bytes allocated per MD step
	stepsPerOp int
	fixedOps   int
	attempted  int
	failed     int
	checks     []check
	window     time.Duration // first timed operation → last
	newSimMs   float64       // warm in-process mdm.NewSimulation (raw)

	// Facts at the end of the fixed portion.
	hash       uint64
	tempK      float64
	liveHeapMB float64  // the program's live heap: HeapAlloc minus the harness's own (see liveHeap)
	forceErr   float64  // force error of this run's own state: the blow-up guard
	fs         fsCounts // storage-layer counts (served workload; zero otherwise)

	// probeErr is the gated force_rms_rel_err: the force error on the probe
	// trajectory (timed run only; see probeForceErr).
	probeErr float64

	// Traced-run extras.
	replayFactor map[int]float64 // replay step → calibration factor
	shadow       *shadowRun      // decomposed workload: traffic of a session stepped in lockstep
	rp           *replayer       // the layer replayer, for its work counters

	// Served-workload extras.
	admitMs    []float64 // Submit call per session (raw)
	queueMs    []float64 // submit → running, burst sessions only (raw)
	rejected   int
	bareStepMs float64 // calibrated solo N=64 step, no journal
	fsyncMs    float64 // mean fsync over the fixed portion (traced run only)

	journalBytesPerStep, checkpointBytes float64 // from the durable-layer replay
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		o.failed++
	}
}

// calMs returns the calibrated time of every sample.
func (o *outcome) calMs() []float64 {
	v := make([]float64, len(o.samples))
	for i, s := range o.samples {
		v[i] = s.calMs(o.w.elasticity)
	}
	return v
}

// stepCalMs is the headline figure: median over blocks of the mean
// calibrated time per MD step.
func (o *outcome) stepCalMs() (float64, int) {
	m, blocks := blockMedian(o.calMs(), o.w.block)
	return m / float64(o.stepsPerOp), blocks
}

// hashState is the FNV-64a hash of positions and velocities.
func hashState(s *md.System) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	for _, set := range [][]vec.V{s.Pos, s.Vel} {
		for _, v := range set {
			put(v.X)
			put(v.Y)
			put(v.Z)
		}
	}
	return h.Sum64()
}

// accuracy pools the simulator's force error over the states it is given:
// |F − F_ref|² and |F_ref|² against the float64 reference Ewald at the same
// positions and parameters.
type accuracy struct {
	ref      *core.Reference
	num, den float64
}

func newAccuracy(cfg mdm.Config) (*accuracy, error) {
	p, err := cfg.EwaldParams()
	if err != nil {
		return nil, err
	}
	ref, err := core.NewReference(p)
	if err != nil {
		return nil, err
	}
	return &accuracy{ref: ref}, nil
}

// add evaluates the reference at the simulation's current positions and
// accumulates the error of the forces it holds for them.
func (a *accuracy) add(sim *mdm.Simulation) error {
	rf, _, err := a.ref.Forces(sim.System)
	if err != nil {
		return err
	}
	for i, f := range sim.Integrator.Forces() {
		a.num += f.Sub(rf[i]).Norm2()
		a.den += rf[i].Norm2()
	}
	return nil
}

// relErr is the pooled RMS error relative to the RMS reference force.
func (a *accuracy) relErr() float64 { return math.Sqrt(a.num / a.den) }

// probeSeed seeds the probe trajectory; it is not the workload seed on
// purpose. The force error depends on the configuration it is measured at (a
// few close pairs dominate it): pooled over eight states of the timed run it
// still spread 1.6–4.4 % over ten velocity seeds, so an error taken on the
// timed run's own states could not be held to a 1 % bound across seeds. The probe is the same program path —
// mdm.NewSimulation with the workload's configuration, NVT then NVE — on one
// fixed trajectory, so force_rms_rel_err repeats exactly on every run of
// every seed and any change of arithmetic moves it. The timed run's own
// state is still checked against the 5e-2 guard.
const probeSeed = 20001

// probeForceErr runs the probe trajectory — 8 NVT steps off the lattice, 2
// NVE steps — and returns the force error at its last state. It is short
// because it is paid on every timed run after the window.
func probeForceErr(cfg mdm.Config) (float64, error) {
	cfg.Seed = probeSeed
	acc, err := newAccuracy(cfg)
	if err != nil {
		return 0, err
	}
	sim, err := mdm.NewSimulation(cfg)
	if err != nil {
		return 0, err
	}
	defer func() { _ = sim.Free() }()
	if err := sim.RunNVT(8); err != nil {
		return 0, err
	}
	if err := sim.RunNVE(2); err != nil {
		return 0, err
	}
	if err := acc.add(sim); err != nil {
		return 0, err
	}
	return acc.relErr(), nil
}

// liveHeap is HeapAlloc after two collections. The harness reads it once
// when its own buffers (samples, the calibration tables, the reference
// Ewald) are allocated and the program under test is not yet built, and
// again at the end of the fixed portion; the difference is the program's
// live heap, not the harness's.
func liveHeap() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// The runtime keeps each OS thread it creates as a 5.5 KB heap object, and
// how many it has created by a given moment depends on scheduling: without
// this, two readings of a 100 KB live heap differ by one or two threads'
// worth, 5–10 %. spawnThreads, called once when a run starts, makes the
// runtime create more threads than the run will need before the first
// reading; it parks and reuses them later.
func spawnThreads() {
	const n = 16
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			runtime.LockOSThread() // n goroutines locked at once need n threads
			ready.Done()
			<-release
			runtime.UnlockOSThread()
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
}

// allocMeter reads the bytes allocated since its last reading. It uses
// runtime.ReadMemStats, which flushes the per-P allocation caches and so
// counts exactly; the stop-the-world it costs (tens of microseconds) falls
// between two timed operations, never inside one.
type allocMeter struct {
	m    runtime.MemStats
	last uint64
}

func (a *allocMeter) delta() float64 {
	runtime.ReadMemStats(&a.m)
	d := a.m.TotalAlloc - a.last
	a.last = a.m.TotalAlloc
	return float64(d)
}

// allocPerStep is the median over blocks of the bytes allocated per MD step.
// Like step_cal_ms it reads the ordinary step: the decomposed workload
// allocates 16.2 KB on most steps and 36 KB on the 1–4 % of steps where a
// particle migrates, and which steps those are depends on the trajectory, so
// the mean over a 15 s window moves 5 % from seed to seed where the median
// moves 0.4 %.
func (o *outcome) allocPerStep() float64 { return median(o.blockAlloc) }

// physicsChecks are the validity checks every workload shares.
func (o *outcome) physicsChecks() {
	o.check("temperature", !math.IsNaN(o.tempK) && o.tempK >= 300 && o.tempK <= 4000,
		"%.1f K, want finite in [300, 4000]", o.tempK)
	o.check("force_rms_rel_err", o.forceErr > 0 && o.forceErr <= 5e-2,
		"%.4g, want (0, 5e-2]", o.forceErr)
}

// shadowRun is a second decomposed session the traced run steps in lockstep
// with the live one, between root spans, to read the exact mpi traffic a
// step causes (the live session's world is not reachable through mdm).
type shadowRun struct {
	world            *mpi.World
	run              *core.ParallelRun
	byTag            map[int]mpi.Stats
	total            mpi.Stats
	rebuilds, reuses int
}

func newShadowRun(cfg mdm.Config) (*shadowRun, error) {
	p, err := cfg.EwaldParams()
	if err != nil {
		return nil, err
	}
	mcfg := core.CurrentMachineConfig(p)
	mcfg.PotentialEvery, mcfg.Workers, mcfg.Pipeline, mcfg.Skin = cfg.PotentialEvery, cfg.Workers, cfg.Pipeline, cfg.Skin
	nWave := max(1, cfg.WaveRanks)
	world, err := mpi.NewWorld(cfg.Ranks + nWave)
	if err != nil {
		return nil, err
	}
	world.SetTimeout(time.Hour)
	run, err := core.NewParallelRun(world, mcfg, cfg.Ranks, nWave)
	if err != nil {
		return nil, err
	}
	return &shadowRun{world: world, run: run}, nil
}

// freeze snapshots the counters at the end of the fixed portion.
func (s *shadowRun) freeze() {
	s.byTag, s.total = s.world.StatsByTag(), s.world.Stats()
	s.rebuilds, s.reuses = s.run.JSetStats()
}

// sampleCap is the capacity the sample buffers get before the timed window,
// several times what the fastest workload produces in 15 s (about 800), so
// that appending a sample never allocates inside the window.
const sampleCap = 4096

// errInterrupted reports a run stopped by a signal.
var errInterrupted = errors.New("benchmark: interrupted")

// runMD drives one MD workload through the public API: NewSimulation, an
// untimed NVT warm-up, then one RunNVE(1) per timed sample, each bracketed by
// calibration spins. With a tracer every step is a root span and, between
// root spans, every w.replay-th step is replayed layer by layer.
func runMD(ctx context.Context, w workload, seed int64, budget time.Duration, cal *calibrator, tr *tracer) (*outcome, error) {
	o := &outcome{w: w, stepsPerOp: 1, fixedOps: w.fixed * w.block, replayFactor: map[int]float64{}}
	cfg := w.simConfig(seed)
	cfs := &countFS{FS: store.OS()}
	cfg.SetStoreFS(cfs) // whatever the run writes is counted; the prediction is nothing
	acc, err := newAccuracy(cfg)
	if err != nil {
		return o, err
	}
	o.samples = make([]sample, 0, sampleCap)
	o.blockAlloc = make([]float64, 0, sampleCap)
	baseHeap := liveHeap()
	t0 := time.Now()
	sim, err := mdm.NewSimulation(cfg)
	if err != nil {
		return o, err
	}
	o.newSimMs = ms(time.Since(t0))
	defer func() { _ = sim.Free() }()
	if err := sim.RunNVT(w.warm); err != nil {
		return o, err
	}

	var rp *replayer
	if tr != nil {
		if rp, err = newReplayer(tr, cfg, sim.System); err != nil {
			return o, err
		}
		defer rp.free()
		o.rp = rp
		if cfg.Ranks > 0 {
			if o.shadow, err = newShadowRun(cfg); err != nil {
				return o, err
			}
			defer func() { _ = o.shadow.run.Free() }()
		}
	}

	var alloc allocMeter
	runtime.GC()
	alloc.delta()
	cal.spin() // the first spin after other work runs cold; discard it
	prev := cal.spin()
	start := time.Now()
	for op := 0; ; op++ {
		if op == o.fixedOps {
			o.liveHeapMB = (liveHeap() - baseHeap) / 1e6
			o.hash, o.tempK = hashState(sim.System), sim.System.Temperature()
			if err := acc.add(sim); err != nil {
				return o, err
			}
			o.forceErr, o.fs = acc.relErr(), cfs.counts()
			if o.shadow != nil {
				o.shadow.freeze()
			}
			alloc.delta() // what the harness allocated just now is not the program's
			prev = cal.spin()
		}
		if op >= o.fixedOps && op%w.block == 0 && time.Since(start) >= budget {
			break
		}
		if ctx.Err() != nil {
			return o, errInterrupted
		}
		id := tr.begin("mdm.step", "mdm", op)
		t := time.Now()
		err := sim.RunNVE(1)
		d := time.Since(t)
		tr.end(id)
		cur := cal.spin()
		o.attempted++
		if err != nil {
			o.failed++
			return o, fmt.Errorf("step %d: %w", op, err)
		}
		o.samples = append(o.samples, sample{t: d, before: prev, after: cur})
		o.window = time.Since(start)
		prev = cur
		if tr == nil {
			if (op+1)%w.block == 0 {
				o.blockAlloc = append(o.blockAlloc, alloc.delta()/float64(w.block))
			}
			continue
		}
		// Between root spans: the shadow session and the layer replay.
		if o.shadow != nil {
			id := tr.begin("core.parallel_step", "core", op)
			_, err := o.shadow.run.Step(sim.System)
			tr.end(id)
			if err != nil {
				return o, fmt.Errorf("shadow session step %d: %w", op, err)
			}
		}
		if (op+1)%w.replay == 0 {
			before := cal.spin()
			if err := rp.replay(sim.System, sim.Integrator.Forces(), sim.Integrator.Potential(), sim.Integrator.Dt, op); err != nil {
				return o, fmt.Errorf("replay at step %d: %w", op, err)
			}
			o.replayFactor[op] = calFactor(before, cal.spin(), w.elasticity)
		}
		prev = cal.spin()
	}
	o.physicsChecks()
	o.check("store_untouched", o.fs == fsCounts{}, "MD workloads write nothing: %+v", o.fs)
	if rp != nil {
		o.replayCheck(rp)
	} else if o.probeErr, err = probeForceErr(cfg); err != nil {
		return o, fmt.Errorf("probe trajectory: %w", err)
	}
	return o, nil
}

// replayCheck requires the replayer's standalone MDGRAPE-2 and WINE-2
// sessions, whose tables and coefficients repeat core's unexported set-up, to
// have reproduced the machine's forces.
func (o *outcome) replayCheck(rp *replayer) {
	o.check("replay_pieces_equal_machine", rp.replays > 0 && rp.pieceErr <= 1e-12,
		"sweep + wave forces of the standalone sessions against core.Machine.Forces: relative RMS difference %.3g", rp.pieceErr)
}

// hashRecords is the FNV-64a hash of a Records series.
func hashRecords(h io.Writer, recs []mdm.Record) {
	for _, r := range recs {
		_, _ = fmt.Fprintf(h, "%d %x %x %x %x %x\n", r.Step, math.Float64bits(r.Time),
			math.Float64bits(r.T), math.Float64bits(r.KE), math.Float64bits(r.PE), math.Float64bits(r.E))
	}
}

// awaitDone polls a session until it leaves the queued and running states,
// returning its final state and, if it was seen running, when.
func awaitDone(ctx context.Context, s *serve.Session) (state string, running time.Time, err error) {
	for {
		switch st := s.Status().State; st {
		case serve.StateQueued:
		case serve.StateRunning:
			if running.IsZero() {
				running = time.Now()
			}
		default:
			return st, running, nil
		}
		if ctx.Err() != nil {
			return "", running, errInterrupted
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// openManager opens the served workload's manager on a fresh run-dir root
// under dir, over the real filesystem wrapped in the counting FS.
func openManager(dir string, cfs *countFS) (*serve.Manager, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	root, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return nil, "", err
	}
	m, err := serve.Open(serve.Config{Root: root, FS: cfs, Executors: 1, WorkerBudget: 1})
	if err != nil {
		_ = os.RemoveAll(root)
		return nil, "", err
	}
	return m, root, nil
}

// runServed drives the served workload: a closed loop of one client
// submitting 64-step N=64 sessions one at a time to an in-process
// serve.Manager whose storage is the real filesystem. A sample is one
// session, submit → done. With a tracer every session is a root span, the
// journal and checkpoint layers are replayed on the counting FS, and bursts
// of four sessions measure queue wait.
func runServed(ctx context.Context, w workload, seed int64, budget time.Duration, cal *calibrator, tr *tracer, dir string) (*outcome, error) {
	o := &outcome{w: w, stepsPerOp: servedSteps, fixedOps: w.fixed * w.block, replayFactor: map[int]float64{}}
	live := &countFS{FS: store.OS(), timed: tr != nil}
	o.samples = make([]sample, 0, sampleCap)
	o.admitMs = make([]float64, 0, sampleCap)
	o.blockAlloc = make([]float64, 0, sampleCap)
	sessions := make([]*serve.Session, 0, o.fixedOps)
	baseHeap := liveHeap()
	m, root, err := openManager(dir, live)
	if err != nil {
		return o, err
	}
	defer func() {
		m.Close()
		_ = os.RemoveAll(root)
	}()

	// submit runs one session to its end; any end but done is an error.
	submit := func(i int) (sess *serve.Session, admit time.Duration, err error) {
		t := time.Now()
		sess, err = m.Submit(ctx, jobSpec(seed, i, servedSteps))
		admit = time.Since(t)
		if err != nil {
			var adm *serve.AdmissionError
			if errors.As(err, &adm) {
				o.rejected++
			}
			return nil, admit, err
		}
		state, _, err := awaitDone(ctx, sess)
		if err == nil && state != serve.StateDone {
			err = fmt.Errorf("session %s ended %s: %s", sess.ID, state, sess.Status().Error)
		}
		return sess, admit, err
	}
	for i := 0; i < w.warm; i++ {
		if _, _, err := submit(80000 + i); err != nil {
			return o, fmt.Errorf("warm-up session: %w", err)
		}
	}

	replayFS := &countFS{FS: store.OS(), timed: true, tr: tr}
	replayDir := filepath.Join(root, "replay")
	var alloc allocMeter
	runtime.GC()
	alloc.delta()
	fs0 := live.counts()
	cal.spin() // the first spin after other work runs cold; discard it
	prev := cal.spin()
	start := time.Now()
	for op := 0; ; op++ {
		if op == o.fixedOps {
			o.liveHeapMB = (liveHeap() - baseHeap) / 1e6
			o.fs = live.counts().sub(fs0)
			alloc.delta()
			prev = cal.spin()
		}
		if op >= o.fixedOps && time.Since(start) >= budget {
			break
		}
		if ctx.Err() != nil {
			return o, errInterrupted
		}
		id := tr.begin("serve.session", "serve", op)
		t := time.Now()
		sess, admit, err := submit(op)
		d := time.Since(t)
		tr.end(id)
		cur := cal.spin()
		o.attempted++
		if err != nil {
			o.failed++
			return o, fmt.Errorf("session %d: %w", op, err)
		}
		o.samples = append(o.samples, sample{t: d, before: prev, after: cur})
		o.admitMs = append(o.admitMs, ms(admit))
		o.window = time.Since(start)
		prev = cur
		if op < o.fixedOps {
			sessions = append(sessions, sess)
		}
		if tr == nil {
			o.blockAlloc = append(o.blockAlloc, alloc.delta()/servedSteps)
			continue
		}
		if (op+1)%w.replay == 0 {
			before := cal.spin()
			if err := o.replayDurable(tr, replayFS, replayDir, seed, op); err != nil {
				return o, fmt.Errorf("replay at session %d: %w", op, err)
			}
			o.replayFactor[op] = calFactor(before, cal.spin(), w.elasticity)
		}
		prev = cal.spin()
	}
	if o.fs.fsyncs > 0 {
		o.fsyncMs = float64(o.fs.fsyncNanos) / 1e6 / float64(o.fs.fsyncs)
	}

	if tr != nil {
		if err := o.bursts(ctx, m, seed); err != nil {
			return o, err
		}
	}
	if err := o.soloChecks(ctx, sessions, cal, tr); err != nil {
		return o, err
	}
	o.physicsChecks()
	if o.rp != nil {
		o.replayCheck(o.rp)
	} else if o.probeErr, err = probeForceErr(soloConfig(jobSpec(probeSeed, 0, servedSteps))); err != nil {
		return o, fmt.Errorf("probe trajectory: %w", err)
	}
	return o, nil
}

// bursts submits two bursts of burstSize sessions at once; with one executor
// all but the first wait in the admission queue, which is the only place the
// closed loop never queues. Each burst session is one more attempted op.
func (o *outcome) bursts(ctx context.Context, m *serve.Manager, seed int64) error {
	for b := 0; b < 2; b++ {
		var batch []*serve.Session
		var at []time.Time
		for k := 0; k < burstSize; k++ {
			o.attempted++
			s, err := m.Submit(ctx, jobSpec(seed, 90000+b*burstSize+k, setupSteps))
			if err != nil {
				o.failed++
				o.rejected++
				continue
			}
			batch = append(batch, s)
			at = append(at, time.Now())
		}
		// One executor runs the burst in submission order; each session's
		// running state is observed while it is the one being polled.
		for k, s := range batch {
			state, running, err := awaitDone(ctx, s)
			if err != nil {
				return err
			}
			if state != serve.StateDone {
				o.failed++
			}
			if !running.IsZero() {
				o.queueMs = append(o.queueMs, ms(running.Sub(at[k])))
			}
		}
	}
	return nil
}

// soloChecks re-runs servedSolo of the fixed-portion sessions (evenly spread,
// first and last included) as plain mdm.NewSimulation + RunNVT and requires
// the served Records to equal the solo ones. The solo runs also give the
// final-state hash, temperature and force error of the workload, the bare
// N=64 step time behind serve.commit_share and, traced, the force-layer
// replay at N=64.
func (o *outcome) soloChecks(ctx context.Context, sessions []*serve.Session, cal *calibrator, tr *tracer) error {
	h := fnv.New64a()
	var acc *accuracy
	var bare, newSim []float64
	var rp *replayer
	equal := true
	detail := ""
	n := min(servedSolo, len(sessions))
	for k := 0; k < n; k++ {
		i := 0
		if n > 1 {
			i = k * (len(sessions) - 1) / (n - 1)
		}
		sess := sessions[i]
		t0 := time.Now()
		sim, err := mdm.NewSimulation(soloConfig(sess.Spec))
		if err != nil {
			return err
		}
		newSim = append(newSim, ms(time.Since(t0)))
		if acc == nil {
			if acc, err = newAccuracy(soloConfig(sess.Spec)); err != nil {
				_ = sim.Free()
				return err
			}
		}
		// Four quarters, the force error pooled over the state after each.
		var d time.Duration
		before := cal.spin()
		for quarter := 0; quarter < 4 && err == nil; quarter++ {
			t := time.Now()
			err = sim.RunNVT(servedSteps / 4)
			d += time.Since(t)
			if err == nil {
				err = acc.add(sim)
			}
		}
		if err != nil {
			_ = sim.Free()
			return err
		}
		bare = append(bare, sample{t: d, before: before, after: cal.spin()}.calMs(o.w.elasticity)/servedSteps)
		solo, served := sim.Records(), sess.Records(-1)
		if len(solo) != len(served) {
			equal, detail = false, fmt.Sprintf("session %s: %d served records, %d solo", sess.ID, len(served), len(solo))
		}
		for j := 0; equal && j < len(solo); j++ {
			if solo[j] != served[j] {
				equal, detail = false, fmt.Sprintf("session %s: record %d differs: served %+v, solo %+v", sess.ID, j, served[j], solo[j])
			}
		}
		hashRecords(h, served)
		o.tempK = sim.System.Temperature()
		if tr != nil {
			if rp == nil {
				rp, err = newReplayer(tr, soloConfig(sess.Spec), sim.System)
			}
			for j := 0; err == nil && j < 3; j++ {
				step := soloReplayStep + k*3 + j
				s0 := cal.spin()
				err = rp.replay(sim.System, sim.Integrator.Forces(), sim.Integrator.Potential(), sim.Integrator.Dt, step)
				o.replayFactor[step] = calFactor(s0, cal.spin(), o.w.elasticity)
			}
		}
		_ = sim.Free()
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return errInterrupted
		}
	}
	if rp != nil {
		o.rp = rp
		rp.free()
	}
	o.hash = h.Sum64()
	if acc != nil {
		o.forceErr = acc.relErr()
	}
	o.bareStepMs, o.newSimMs = median(bare), median(newSim)
	o.check("served_records_equal_solo", equal && n > 0, "%d sessions compared%s", n, detail)
	return nil
}

// soloReplayStep offsets the span step of the served workload's N=64 force
// replays past any session index.
const soloReplayStep = 1 << 20

// replayDurable replays the two durable-write layers of a served step on the
// counting FS: a journal append (with its fsync as a store child span) for
// every step of a checkpoint segment, then the checkpoint commit. It records
// the bytes each wrote.
func (o *outcome) replayDurable(tr *tracer, cfs *countFS, dir string, seed int64, step int) error {
	const segment = 8 // serve's default CheckpointEvery
	if err := cfs.MkdirAll(dir); err != nil {
		return err
	}
	cfs.step = step
	sys, err := md.NewRockSalt(servedCells, 5.64)
	if err != nil {
		return err
	}
	sys.SetMaxwellVelocities(1200, seed)
	root := tr.begin("replay", "serve", step)
	defer tr.end(root)

	j, err := supervise.CreateJournalFS(filepath.Join(dir, "run.wal"), supervise.Options{FS: cfs})
	if err != nil {
		return err
	}
	b0 := cfs.bytes.Load()
	for k := 1; k <= segment; k++ {
		id := tr.begin("supervise.journal_append", "supervise", step)
		err := j.Append(supervise.Record{Step: k, Stage: "nvt"})
		tr.end(id)
		if err != nil {
			_ = j.Close()
			return err
		}
	}
	b1 := cfs.bytes.Load()
	if err := j.Close(); err != nil {
		return err
	}
	id := tr.begin("md.checkpoint", "md", step)
	err = md.WriteCheckpointFS(cfs, filepath.Join(dir, "run.ckpt"), sys, step)
	tr.end(id)
	o.journalBytesPerStep = float64(b1-b0) / segment
	o.checkpointBytes = float64(cfs.bytes.Load() - b1)
	return err
}
