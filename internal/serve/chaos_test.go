package serve_test

// The server-level chaos suite: a multi-tenant workload with in-simulation
// hardware faults (a board drop absorbed by a spare, a hang caught by the
// watchdog) is killed by a storage power cut at randomized-but-reproducible
// points, the server is restarted over the surviving disk image, and every
// session must finish bit-identically to a solo run that was never
// interrupted. This is the end-to-end proof of the service's crash-safety
// contract; the per-operation storage semantics are covered by the crash
// matrix in the root package.

import (
	"context"
	"fmt"
	"path"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/serve"
	"mdm/internal/store"
	"mdm/internal/supervise"
	"mdm/internal/vec"
)

// chaosSpecs is the workload: five sessions across four tenants, mixing the
// reference and MDM backends, one session with a board drop its spare board
// absorbs and one with a hang its watchdog breaks.
func chaosSpecs() []serve.JobSpec {
	return []serve.JobSpec{
		{Tenant: "alice", Cells: 2, Steps: 12, Seed: 1, Backend: "reference"},
		{Tenant: "alice", Cells: 2, Steps: 10, Seed: 2, Backend: "reference"},
		{Tenant: "bob", Cells: 2, Steps: 14, Seed: 3, Backend: "reference"},
		{Tenant: "carol", Cells: 2, Steps: 10, Seed: 4, Backend: "mdm",
			Faults: "mdg:hang@step=4", WatchdogMs: 250},
		{Tenant: "dave", Cells: 2, Steps: 10, Seed: 5, Backend: "mdm",
			Faults: "wine2:board-drop@step=5,board=1"},
	}
}

// chaosConfig runs the workload with real concurrency: four executors, so at
// least four tenant sessions advance at once, all sharing one worker budget.
func chaosConfig(fsys store.FS) serve.Config {
	return serve.Config{
		Root:            "data",
		FS:              fsys,
		Executors:       4,
		WorkerBudget:    4,
		QueueDepth:      8,
		AdmitWait:       time.Second,
		CheckpointEvery: 2,
	}
}

// soloFinal is the uninterrupted ground truth for one spec.
type soloFinal struct {
	pos, vel []vec.V
	step     int
}

// soloRun executes one spec alone on its own pristine filesystem and returns
// the final committed checkpoint.
func soloRun(t *testing.T, spec serve.JobSpec) soloFinal {
	t.Helper()
	fsys := store.NewFaultFS(nil)
	m, err := serve.Open(chaosConfig(fsys))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, s.ID, serve.StateDone)
	m.Close()
	return readFinal(t, fsys, spec.Tenant, s.ID)
}

// readFinal loads the snapshot that opens a session's log: its final
// checkpoint.
func readFinal(t *testing.T, fsys store.FS, tenant, id string) soloFinal {
	t.Helper()
	recs, err := supervise.ReadJournalFS(fsys, path.Join("data", tenant, id, "run.wal"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("log of %s/%s: %d frames, %v", tenant, id, len(recs), err)
	}
	sys, err := md.DecodeState(recs[0].State)
	if err != nil {
		t.Fatalf("final snapshot of %s/%s: %v", tenant, id, err)
	}
	return soloFinal{pos: sys.Pos, vel: sys.Vel, step: recs[0].Step}
}

// opCensus counts storage operations per class while a workload runs; the
// totals size the kill schedule, so every trial's cut lands inside the
// workload's actual I/O stream.
type opCensus struct {
	writes atomic.Int64
	syncs  atomic.Int64
}

func (h *opCensus) StoreOp(class string) fault.StoreFate {
	switch class {
	case fault.OpWrite:
		h.writes.Add(1)
	case fault.OpSync:
		h.syncs.Add(1)
	}
	return fault.StoreFate{}
}

// runWorkload submits every spec on m and returns the session IDs ("" where
// the submit itself was refused, e.g. because the power cut hit mid-submit).
func runWorkload(t *testing.T, m *serve.Manager, specs []serve.JobSpec) []string {
	t.Helper()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		s, err := m.Submit(context.Background(), spec)
		if err != nil {
			t.Logf("submit %d refused: %v", i, err)
			continue
		}
		ids[i] = s.ID
	}
	return ids
}

// waitSettled waits until every tracked session is terminal — done, failed
// (the expected verdict once the storage layer has power-cut), or canceled.
func waitSettled(t *testing.T, m *serve.Manager, ids []string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		settled := true
		for _, id := range ids {
			if id == "" {
				continue
			}
			s, ok := m.Session(id)
			if !ok {
				t.Fatalf("session %s disappeared", id)
			}
			if !terminal(s.Status().State) {
				settled = false
				break
			}
		}
		if settled {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("workload never settled")
}

func TestServeChaosKillRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	specs := chaosSpecs()

	// Ground truth: each spec solo, never interrupted.
	solo := make([]soloFinal, len(specs))
	for i, spec := range specs {
		solo[i] = soloRun(t, spec)
		if solo[i].step != spec.Steps {
			t.Fatalf("solo run %d stopped at step %d, want %d", i, solo[i].step, spec.Steps)
		}
	}

	// Census: the same workload, concurrently, counting storage ops.
	census := &opCensus{}
	cfsys := store.NewFaultFS(census)
	cm, err := serve.Open(chaosConfig(cfsys))
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, cm, runWorkload(t, cm, specs))
	cm.Close()
	writes, syncs := census.writes.Load(), census.syncs.Load()
	if writes < 10 || syncs < 10 {
		t.Fatalf("census implausibly small: %d writes, %d syncs", writes, syncs)
	}

	// The kill schedule: power cuts a quarter, half and three quarters of the
	// way into the write stream, plus one mid-fsync (the torn-commit window).
	// Concurrency makes the cut land at a different logical point every run;
	// the recovery contract must hold wherever it lands.
	trials := []string{
		fmt.Sprintf("store:crash@write=%d", writes/4),
		fmt.Sprintf("store:crash@write=%d", writes/2),
		fmt.Sprintf("store:crash@write=%d", 3*writes/4),
		fmt.Sprintf("store:crash@sync=%d", syncs/2),
	}
	for _, scenario := range trials {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			chaosTrial(t, specs, solo, scenario)
		})
	}
}

// chaosTrial runs the workload until the scenario's power cut (or, if the
// interleaving finished first, to completion), restarts the server on the
// surviving disk image, and verifies every session ends bit-identical to its
// solo baseline.
func chaosTrial(t *testing.T, specs []serve.JobSpec, solo []soloFinal, scenario string) {
	inj, err := fault.ParseInjector(scenario)
	if err != nil {
		t.Fatal(err)
	}
	fsys := store.NewFaultFS(inj)
	m, err := serve.Open(chaosConfig(fsys))
	if err != nil {
		t.Fatal(err)
	}
	ids := runWorkload(t, m, specs)
	waitSettled(t, m, ids)
	m.Close()
	if !fsys.Crashed() {
		t.Log("workload outran the kill point; verifying the uninterrupted image")
	}

	// Power restored: reboot the disk (dropping everything past the synced
	// prefix) and restart the server. The sweep re-admits every interrupted
	// session; specs whose submit the cut refused are resubmitted by their
	// tenant, exactly as a real client retrying after a 5xx would.
	fsys.Reboot(nil)
	m2, err := serve.Open(chaosConfig(fsys))
	if err != nil {
		t.Fatalf("restart after %s: %v", scenario, err)
	}
	defer m2.Close()
	for i, spec := range specs {
		if ids[i] != "" {
			continue
		}
		s, err := m2.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("resubmit %d after restart: %v", i, err)
		}
		ids[i] = s.ID
	}

	for i, id := range ids {
		fin := waitState(t, m2, id, serve.StateDone)
		if fin.StepsDone != specs[i].Steps {
			t.Errorf("session %s finished at step %d, want %d", id, fin.StepsDone, specs[i].Steps)
		}
	}
	for i, id := range ids {
		got := readFinal(t, fsys, specs[i].Tenant, id)
		if got.step != solo[i].step {
			t.Errorf("session %s: final checkpoint at step %d, solo %d", id, got.step, solo[i].step)
			continue
		}
		if d := firstDiff(got.pos, solo[i].pos); d >= 0 {
			t.Errorf("session %s: position %d diverges from solo run: %v vs %v", id, d, got.pos[d], solo[i].pos[d])
		}
		if d := firstDiff(got.vel, solo[i].vel); d >= 0 {
			t.Errorf("session %s: velocity %d diverges from solo run: %v vs %v", id, d, got.vel[d], solo[i].vel[d])
		}
	}
}

// firstDiff returns the first index where two vector slices differ exactly
// (bitwise, no tolerance), or -1.
func firstDiff(a, b []vec.V) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
