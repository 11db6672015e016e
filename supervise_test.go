package mdm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mdm/internal/store"
	"mdm/internal/supervise"
)

// runJournaled drives one NVT+NVE protocol under a journal and returns the
// finished simulation (caller frees).
func runJournaled(t *testing.T, cfg Config, nvt, nve int) *Simulation {
	t.Helper()
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVT(nvt); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVE(nve); err != nil {
		t.Fatal(err)
	}
	return sim
}

// A run killed between checkpoints must resume from the log's snapshot and
// records at the exact committed step and finish bit-identical to a run that
// was never interrupted — the central durability claim of the run log.
func TestJournalKillResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	base := Config{
		Cells:  2,
		Faults: "mdg:transient@step=8",
		Supervise: SuperviseConfig{
			Watchdog: time.Second,
			Journal:  filepath.Join(dir, "a.wal"),
		},
	}

	// The uninterrupted reference: 6 NVT + 6 NVE steps.
	ref := runJournaled(t, base, 6, 6)
	defer func() { _ = ref.Free() }()

	// The victim: checkpoint at step 3, keep running to step 8 (2 NVE steps
	// past the NVT segment), then "die" without any further checkpoint.
	cfg := base
	cfg.Supervise.Journal = filepath.Join(dir, "b.wal")
	victim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.RunNVT(3); err != nil {
		t.Fatal(err)
	}
	if err := victim.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := victim.RunNVT(3); err != nil {
		t.Fatal(err)
	}
	if err := victim.RunNVE(2); err != nil {
		t.Fatal(err)
	}
	// The kill: abandon the run. Records through step 8 are already fsynced;
	// Free only releases the boards (a real SIGKILL would not even do that).
	if err := victim.Free(); err != nil {
		t.Fatal(err)
	}

	// Resume replays steps 4-8 from the log over its snapshot…
	resumed, err := ResumeFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resumed.Free() }()
	if got := resumed.Integrator.StepCount(); got != 8 {
		t.Fatalf("resumed at step %d, want 8", got)
	}
	// …and the remaining 4 NVE steps finish the protocol.
	if err := resumed.RunNVE(4); err != nil {
		t.Fatal(err)
	}

	if resumed.Integrator.StepCount() != ref.Integrator.StepCount() {
		t.Fatalf("step counts diverge: %d vs %d",
			resumed.Integrator.StepCount(), ref.Integrator.StepCount())
	}
	for i := range ref.System.Pos {
		if resumed.System.Pos[i] != ref.System.Pos[i] || resumed.System.Vel[i] != ref.System.Vel[i] {
			t.Fatalf("ion %d diverges after kill-resume:\n  pos %v vs %v\n  vel %v vs %v",
				i, resumed.System.Pos[i], ref.System.Pos[i], resumed.System.Vel[i], ref.System.Vel[i])
		}
	}
	// The scheduled faults fired on both timelines (the transient at step 8
	// fired during the replay, not a second time after it).
	rep, ok := resumed.FaultReport()
	if !ok || rep.Retries != 1 {
		t.Errorf("resumed fault report: ok=%v %+v, want exactly 1 retry", ok, rep)
	}

	// The log now holds the step-3 snapshot and every step after it exactly
	// once.
	recs, err := supervise.ReadJournalFS(store.OS(), cfg.Supervise.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("log has %d frames, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Step != i+3 {
			t.Fatalf("log frame %d commits step %d, want %d", i, r.Step, i+3)
		}
	}
	if recs[3].Stage != "nvt" || recs[4].Stage != "nve" {
		t.Errorf("stage boundary wrong: step 6 %q, step 7 %q", recs[3].Stage, recs[4].Stage)
	}
}

// A resume restores the recovery state of the last checkpoint commit: the
// report's retries and events, and the one-shot events that already fired,
// whether keyed by step or by hardware call. So a run killed after
// WriteCheckpoint and resumed reports exactly what the uninterrupted run
// reports.
func TestResumeKeepsFaultReport(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cells:     2,
		Faults:    "mdg:transient@step=2; mdg:transient@call=3; mdg:transient@step=7",
		Supervise: SuperviseConfig{Journal: filepath.Join(dir, "ref.wal")},
	}
	ref := runJournaled(t, cfg, 8, 0)
	defer func() { _ = ref.Free() }()
	want, _ := ref.FaultReport()

	cfg.Supervise.Journal = filepath.Join(dir, "victim.wal")
	victim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.RunNVT(4); err != nil {
		t.Fatal(err)
	}
	if err := victim.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := victim.RunNVT(2); err != nil {
		t.Fatal(err)
	}
	if err := victim.Free(); err != nil { // the kill, at step 6
		t.Fatal(err)
	}
	resumed, err := ResumeFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resumed.Free() }()
	if err := resumed.RunNVT(2); err != nil {
		t.Fatal(err)
	}
	got, _ := resumed.FaultReport()
	if want.Retries != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed report: %d retries, events %q\nuninterrupted: %d retries, events %q (want 3)",
			got.Retries, got.Events, want.Retries, want.Events)
	}
}

// A torn final journal line — the on-disk shape of a kill mid-append — must
// not block the resume: the torn step simply re-executes.
func TestJournalResumeToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cells:     2,
		Supervise: SuperviseConfig{Journal: filepath.Join(dir, "run.wal")},
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVT(2); err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVT(3); err != nil {
		t.Fatal(err)
	}
	want := append([][3]float64(nil), flatten(sim)...)
	if err := sim.Free(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	buf, err := os.ReadFile(cfg.Supervise.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.Supervise.Journal, buf[:len(buf)-25], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resumed.Free() }()
	// The torn step 5 was dropped; replay stops at step 4 and re-running one
	// NVT step reproduces the lost state exactly.
	if got := resumed.Integrator.StepCount(); got != 4 {
		t.Fatalf("resumed at step %d, want 4", got)
	}
	if err := resumed.RunNVT(1); err != nil {
		t.Fatal(err)
	}
	for i, p := range flatten(resumed) {
		if p != want[i] {
			t.Fatalf("ion %d diverges after torn-tail resume", i)
		}
	}
	// The re-executed step was re-journaled: the file ends with a valid
	// record for step 5 again, after the step-2 snapshot and steps 3, 4.
	recs, err := supervise.ReadJournalFS(store.OS(), cfg.Supervise.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Step != 5 {
		t.Fatalf("journal not repaired: %d records, last step %d", len(recs), recs[len(recs)-1].Step)
	}
}

func flatten(sim *Simulation) [][3]float64 {
	out := make([][3]float64, 0, sim.N())
	for _, p := range sim.System.Pos {
		out = append(out, [3]float64{p.X, p.Y, p.Z})
	}
	return out
}

// An interrupted run stops on a committed step with ErrInterrupted, and the
// log's last record is exactly that step.
func TestInterruptStopsOnCommittedStep(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cells:     2,
		Supervise: SuperviseConfig{Journal: filepath.Join(dir, "run.wal")},
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	steps := 0
	sim.SetInterrupt(func() bool {
		steps++
		return steps >= 3
	})
	err = sim.RunNVT(10)
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got := sim.Integrator.StepCount(); got != 3 {
		t.Errorf("stopped at step %d, want 3", got)
	}
	if err := sim.Free(); err != nil {
		t.Fatal(err)
	}
	recs, err := supervise.ReadJournalFS(store.OS(), cfg.Supervise.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Step != 3 {
		t.Fatalf("log: %d frames, want the snapshot and 3 records ending at step 3", len(recs))
	}
}

// The journal payload carries the accumulated recovery report, so a resumed
// run's audit trail includes what happened before the kill.
func TestJournalPayloadCarriesFaultReport(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cells:     2,
		Faults:    "mdg:transient@step=2",
		Supervise: SuperviseConfig{Journal: filepath.Join(dir, "run.wal")},
	}
	sim := runJournaled(t, cfg, 3, 0)
	if err := sim.Free(); err != nil {
		t.Fatal(err)
	}
	recs, err := supervise.ReadJournalFS(store.OS(), cfg.Supervise.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("log has %d frames, want the snapshot and 3 records", len(recs))
	}
	var rep FaultReport
	if err := json.Unmarshal(recs[3].Payload, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 1 {
		t.Errorf("journaled report: %+v, want the step-2 retry", rep)
	}
	if len(recs[3].Cursor) == 0 {
		t.Error("journaled cursor empty: fired events would refire on resume")
	}
}
