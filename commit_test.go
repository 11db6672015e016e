package mdm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/store"
	"mdm/internal/supervise"
	"mdm/internal/vec"
)

// The commit pipeline's contract, proven rather than asserted: the journal
// fsync of step k overlaps the force evaluation of step k+1, every step a
// public method ran is durable when the method returns, a failed commit
// surfaces one step later naming its own step, and the bytes on disk are the
// bytes of a serial commit. All storage goes through store.FaultFS (or a gate
// around it); no test here sleeps.

// snapshot is the state a resume must reproduce bit for bit.
type snapshot struct {
	step     int
	pos, vel []vec.V
}

func snap(sim *Simulation) snapshot {
	return snapshot{
		step: sim.Integrator.StepCount(),
		pos:  append([]vec.V(nil), sim.System.Pos...),
		vel:  append([]vec.V(nil), sim.System.Vel...),
	}
}

func (want snapshot) assertEqual(t *testing.T, sim *Simulation) {
	t.Helper()
	if got := sim.Integrator.StepCount(); got != want.step {
		t.Fatalf("at step %d, want %d", got, want.step)
	}
	for i := range want.pos {
		if sim.System.Pos[i] != want.pos[i] || sim.System.Vel[i] != want.vel[i] {
			t.Fatalf("ion %d diverges at step %d:\n  pos %v vs %v\n  vel %v vs %v",
				i, want.step, sim.System.Pos[i], want.pos[i], sim.System.Vel[i], want.vel[i])
		}
	}
}

// gateFS holds the first fsync of the log, once armed, until the test
// releases it. The log is created through its temp sibling, and the handle
// follows the file through the rename.
type gateFS struct {
	store.FS
	path     string
	armed    atomic.Bool
	once     sync.Once
	entered  chan struct{} // closed when the gated fsync begins
	release  chan struct{} // closed by the test to let it return
	timedOut chan struct{} // closed if the release never came
}

func (g *gateFS) Create(path string) (store.File, error) {
	f, err := g.FS.Create(path)
	if err != nil || path != store.TempPath(g.path) {
		return f, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	store.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	if !f.fs.armed.Load() {
		return f.File.Sync()
	}
	f.fs.once.Do(func() {
		close(f.fs.entered)
		select {
		case <-f.fs.release:
		case <-time.After(10 * time.Second):
			close(f.fs.timedOut)
		}
	})
	return f.File.Sync()
}

// signalFF reports the start of its n-th force evaluation.
type signalFF struct {
	md.ForceField
	calls int
	nth   int
	began chan struct{}
}

func (ff *signalFF) Forces(s *md.System) ([]vec.V, float64, error) {
	ff.calls++
	if ff.calls == ff.nth {
		close(ff.began)
	}
	return ff.ForceField.Forces(s)
}

// The fsync of step 1's record returns only after step 2's force evaluation
// has begun: with the commit on the step goroutine (the parent) the step loop
// is parked inside that fsync and step 2 never starts.
func TestCommitOverlapsNextStep(t *testing.T) {
	gate := &gateFS{
		FS:       store.NewFaultFS(nil),
		path:     cmWALPath,
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
		timedOut: make(chan struct{}),
	}
	sim, err := NewSimulation(cmConfig(gate))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	gate.armed.Store(true) // past the creation snapshot's fsyncs
	ff := &signalFF{ForceField: sim.Integrator.FF, nth: 2, began: make(chan struct{})}
	sim.Integrator.FF = ff

	done := make(chan error, 1)
	go func() { done <- sim.RunNVT(3) }()

	<-gate.entered
	select {
	case <-ff.began:
	case <-gate.timedOut:
		t.Fatal("step 2's force evaluation never began while step 1's journal fsync was in flight: the commit is on the step's critical path")
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Every commit was joined; whether a join had to wait is timing.
	if commits, stalls := sim.CommitStats(); commits != 3 || stalls > commits {
		t.Fatalf("CommitStats = %d commits, %d stalls; want 3 commits and at most 3 stalls", commits, stalls)
	}
	recs, err := supervise.ReadJournalFS(gate, cmWALPath)
	if err != nil || len(recs) != 4 {
		t.Fatalf("log after the run: %d frames, err %v; want the snapshot and 3 records", len(recs), err)
	}
}

// Every step a public method ran is durable when the method returns: cut the
// power the instant RunNVT returns nil, returns ErrInterrupted, or
// WriteCheckpoint returns, and the resume lands on exactly StepCount().
func TestDurableOnReturn(t *testing.T) {
	cases := []struct {
		name string
		tail func(t *testing.T, sim *Simulation)
	}{
		{"RunNVT returns nil", func(t *testing.T, sim *Simulation) {
			if err := sim.RunNVT(4); err != nil {
				t.Fatal(err)
			}
		}},
		{"RunNVT returns ErrInterrupted", func(t *testing.T, sim *Simulation) {
			polls := 0
			sim.SetInterrupt(func() bool { polls++; return polls == 2 })
			if err := sim.RunNVT(4); err != ErrInterrupted {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
		}},
		{"WriteCheckpoint returns", func(t *testing.T, sim *Simulation) {
			if err := sim.RunNVE(2); err != nil {
				t.Fatal(err)
			}
			if err := sim.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := store.NewFaultFS(nil)
			cfg := cmConfig(fs)
			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunNVT(3); err != nil {
				t.Fatal(err)
			}
			if err := sim.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			tc.tail(t, sim)
			want := snap(sim)
			fs.Reboot(nil) // power cut: everything not yet durable is gone
			_ = sim.Free()

			resumed, err := ResumeFromJournal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resumed.Free() }()
			want.assertEqual(t, resumed)
		})
	}
}

// cpFaultProtocol is the protocol of the commit-failure tests: 3 NVT steps, a
// checkpoint, then tail more NVT steps.
func cpFaultProtocol(sim *Simulation, tail int) error {
	if err := sim.RunNVT(3); err != nil {
		return err
	}
	if err := sim.WriteCheckpoint(); err != nil {
		return err
	}
	return sim.RunNVT(tail)
}

// A failed commit of step k surfaces at the commit of step k+1 — or at the
// run's return when k was its last step — as an error that names step k and
// still matches the store sentinel; nothing is written past record k, and the
// resume is bit-identical.
func TestCommitErrorSurfacesOneStepLater(t *testing.T) {
	const failStep, lastStep = 5, 8

	// Census: the fsync ordinal of step 5's record, and the reference state.
	hook := &countHook{ops: make(map[string]int64)}
	ref, err := NewSimulation(cmConfig(store.NewFaultFS(hook)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ref.Free() }()
	if err := cpFaultProtocol(ref, failStep-3); err != nil {
		t.Fatal(err)
	}
	syncK := hook.ops[fault.OpSync]
	if err := ref.RunNVT(lastStep - failStep); err != nil {
		t.Fatal(err)
	}
	want := snap(ref)

	for _, tc := range []struct {
		kind     string
		sentinel error
		tail     int // NVT steps asked of the failing run
		stopStep int // where the run stops
		durable  int // the last step that survives
	}{
		{"eio", store.ErrIO, 5, failStep + 1, failStep},            // surfaces at commit 6
		{"eio", store.ErrIO, 2, failStep, failStep},                // surfaces at return
		{"crash", store.ErrCrashed, 5, failStep + 1, failStep - 1}, // record 5 never synced
		{"crash", store.ErrCrashed, 2, failStep, failStep - 1},
	} {
		// Subtests are named by kind, not by the census-derived ordinal, so
		// a change in the fsync count does not rename them.
		scenario := fmt.Sprintf("store:%s@sync=%d", tc.kind, syncK)
		t.Run(fmt.Sprintf("%s/tail=%d", tc.kind, tc.tail), func(t *testing.T) {
			in, err := fault.ParseInjector(scenario)
			if err != nil {
				t.Fatal(err)
			}
			fs := store.NewFaultFS(in)
			cfg := cmConfig(fs)
			victim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = cpFaultProtocol(victim, tc.tail)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("run error %v, want %v", err, tc.sentinel)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("step %d:", failStep)) {
				t.Fatalf("run error %q does not name step %d", err, failStep)
			}
			if got := victim.Integrator.StepCount(); got != tc.stopStep {
				t.Fatalf("run stopped at step %d, want %d", got, tc.stopStep)
			}
			// The failure is sticky: nothing more is ever journaled.
			if err := victim.RunNVT(1); !errors.Is(err, tc.sentinel) {
				t.Fatalf("run after a failed commit: %v, want %v", err, tc.sentinel)
			}
			if err := victim.WriteCheckpoint(); !errors.Is(err, tc.sentinel) {
				t.Fatalf("checkpoint after a failed commit: %v, want %v", err, tc.sentinel)
			}
			_ = victim.Free() // flushes record 5 after the one-shot eio; fails on the crashed fs
			if fs.Crashed() != (tc.kind == "crash") {
				t.Fatalf("Crashed() = %v under %s", fs.Crashed(), scenario)
			}
			fs.Reboot(nil)

			recs, err := supervise.ReadJournalFS(fs, cmWALPath)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(recs); n == 0 || recs[n-1].Step != tc.durable {
				t.Fatalf("journal on disk ends at %+v, want step %d", recs, tc.durable)
			}
			resumed, err := ResumeFromJournal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resumed.Free() }()
			if got := resumed.Integrator.StepCount(); got != tc.durable {
				t.Fatalf("resumed at step %d, want %d", got, tc.durable)
			}
			if err := resumed.RunNVT(lastStep - tc.durable); err != nil {
				t.Fatal(err)
			}
			want.assertEqual(t, resumed)
		})
	}
}

// runSerialNVT is the serial commit, kept as the oracle: RunNVT with the
// journal append (marshal, write, fsync) inline on the step goroutine, as it
// was before the commit pipeline.
func runSerialNVT(s *Simulation, n int) error {
	s.Integrator.Mode = md.NVT
	s.Integrator.Target = s.cfg.Temperature
	s.stage = "nvt"
	return s.Integrator.Run(n, func(int) error {
		rec, err := s.stepRecord()
		if err != nil {
			return err
		}
		if err := s.journal.Append(rec); err != nil {
			return err
		}
		s.Recorder.Sample(s.Integrator)
		return nil
	})
}

// diskImage renders every file of fs, live and durable content both.
func diskImage(t *testing.T, fs *store.FaultFS) string {
	t.Helper()
	names, err := fs.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, name := range names {
		live, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		durable, ok := fs.DurableBytes(name)
		fmt.Fprintf(&b, "== %s: live %d bytes, durable %d bytes (%v)\n%q\n%q\n", name, len(live), len(durable), ok, live, durable)
	}
	return b.String()
}

// A 40-step run under hardware faults — so the records carry a cursor and a
// recovery payload — leaves a log byte-identical to the serial commit's, at
// every run and checkpoint boundary.
func TestJournalBytesMatchSerialCommit(t *testing.T) {
	const segment, steps = 8, 40
	build := func() (*Simulation, *store.FaultFS) {
		fs := store.NewFaultFS(nil)
		cfg := Config{
			Cells:     2,
			Faults:    "mdg:transient@step=3; wine2:board-drop@step=12,board=1; mdg:transient@step=30",
			Supervise: SuperviseConfig{Journal: cmWALPath},
		}
		cfg.fsys = fs
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim, fs
	}
	piped, pfs := build()
	defer func() { _ = piped.Free() }()
	serial, sfs := build()
	defer func() { _ = serial.Free() }()

	compare := func(at string) {
		t.Helper()
		if p, s := diskImage(t, pfs), diskImage(t, sfs); p != s {
			t.Fatalf("%s: durable bytes differ from the serial commit\n--- pipeline\n%s\n--- serial\n%s", at, p, s)
		}
	}
	for done := 0; done < steps; done += segment {
		if err := piped.RunNVT(segment); err != nil {
			t.Fatal(err)
		}
		if err := runSerialNVT(serial, segment); err != nil {
			t.Fatal(err)
		}
		compare(fmt.Sprintf("after step %d", done+segment))
		if done+segment == steps {
			break // leave the last segment's records in the journal
		}
		if err := piped.WriteCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if err := serial.WriteCheckpoint(); err != nil {
			t.Fatal(err)
		}
		compare(fmt.Sprintf("after the checkpoint at step %d", done+segment))
	}
	recs, err := supervise.ReadJournalFS(pfs, cmWALPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recs); n != segment+1 || len(recs[n-1].Cursor) != 3 || len(recs[n-1].Payload) == 0 {
		t.Fatalf("final log: %d frames, last %+v; want a snapshot and %d records, the last with a 3-event cursor and a payload", n, recs[n-1], segment)
	}
}

// A checkpoint commit costs exactly 1 create, 1 write, 2 fsyncs — the new
// log's file and its directory entry — and 1 rename, with nothing read, and
// a power cut at any operation of it resumes on the checkpoint step, bit for
// bit: the old log holds every step through it.
func TestCheckpointCommitCost(t *testing.T) {
	const ckptStep = 5
	protocol := func(sim *Simulation, between func()) error {
		if err := cpFaultProtocol(sim, ckptStep-3); err != nil {
			return err
		}
		between()
		return sim.WriteCheckpoint()
	}

	hook := &countHook{ops: make(map[string]int64)}
	ref, err := NewSimulation(cmConfig(store.NewFaultFS(hook)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ref.Free() }()
	before := make(map[string]int64)
	if err := protocol(ref, func() {
		for class, n := range hook.ops {
			before[class] = n
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := snap(ref)

	cost := map[string]int64{fault.OpCreate: 1, fault.OpWrite: 1, fault.OpSync: 2, fault.OpRename: 1, fault.OpRead: 0}
	for class, n := range cost {
		if got := hook.ops[class] - before[class]; got != n {
			t.Fatalf("WriteCheckpoint issued %d %s operations, want %d (census before %v, after %v)", got, class, n, before, hook.ops)
		}
	}
	for _, class := range []string{fault.OpCreate, fault.OpWrite, fault.OpSync, fault.OpRename} {
		for n := before[class] + 1; n <= hook.ops[class]; n++ {
			// Named by position inside the checkpoint commit, not by the
			// absolute ordinal the census happens to give it.
			scenario := fmt.Sprintf("store:crash@%s=%d", class, n)
			t.Run(fmt.Sprintf("crash@%s+%d", class, n-before[class]), func(t *testing.T) {
				in, err := fault.ParseInjector(scenario)
				if err != nil {
					t.Fatal(err)
				}
				fs := store.NewFaultFS(in)
				cfg := cmConfig(fs)
				victim, err := NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				err = protocol(victim, func() {})
				_ = victim.Free()
				if !errors.Is(err, store.ErrCrashed) || !fs.Crashed() {
					t.Fatalf("scenario %s: err %v, crashed %v", scenario, err, fs.Crashed())
				}
				fs.Reboot(nil)
				resumed, err := ResumeFromJournal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = resumed.Free() }()
				want.assertEqual(t, resumed)
			})
		}
	}
}

// The steady-state journaled step allocates no more objects than it did with
// the commit inline (15 on this configuration at the parent: 10 for the step,
// 5 for the record's marshal, write and fault-filesystem bookkeeping). A
// goroutine or channel per commit would show here.
func TestJournaledStepAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned count only holds in uninstrumented builds")
	}
	cfg := Config{Cells: 2, Workers: 1, Supervise: SuperviseConfig{Journal: cmWALPath}}
	cfg.fsys = store.NewFaultFS(nil)
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	if err := sim.RunNVT(8); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sim.RunNVT(1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("journaled step: %.1f allocs", allocs)
	if allocs > 15 {
		t.Errorf("steady-state journaled step does %.1f allocs, want ≤ 15", allocs)
	}
}
